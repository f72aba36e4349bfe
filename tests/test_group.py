import numpy as np
import pytest

from oracles import einstein_velocity_composition
from propertime import group
from propertime.cli import scenario_transform
from propertime.errors import DomainError
from propertime.group import (
    BoostParameters,
    SourceDensities,
    boost_acceleration,
    boost_acceleration_inverse,
    boost_event,
    boost_event_inverse,
    boost_lightspeed,
    boost_lightspeed_inverse,
    boost_sources,
    boost_velocity,
    boost_velocity_inverse,
    convective_density_ratio,
    density_transform_general,
    dstar,
)
from propertime.kinematics import NATURAL, SI, collaborative_speed, gamma, observer_from_proper

RNG = np.random.default_rng(1234)


def random_boost(rng, top=0.99):
    d = rng.normal(size=3)
    d /= np.linalg.norm(d)
    return BoostParameters(d * rng.uniform(0.0, top))


def test_boost_parameters_reject_superluminal():
    with pytest.raises(DomainError):
        BoostParameters(np.array([1.0, 0.0, 0.0]))
    with pytest.raises(DomainError, match="is not below c"):
        BoostParameters(np.array([np.nan, 0.0, 0.0]))


def test_boost_velocity_is_a_read_only_copy():
    v = np.array([0.6, 0.0, 0.0])
    boost = BoostParameters(v)
    v[0] = 2.0  # superluminal, had the boost kept the caller's array
    np.testing.assert_array_equal(boost.v, [0.6, 0.0, 0.0])
    assert boost.gamma_v == 1.25
    with pytest.raises(ValueError):
        boost.v[0] = 0.9


def test_gamma_computed_once_per_boost(monkeypatch):
    # scenario_transform uses one boost, and its four inverse maps share the
    # one inverse boost
    calls = []
    built = []

    def counted(w, units):
        calls.append(1)
        return gamma(w, units)

    init = BoostParameters.__post_init__

    def counted_init(self):
        built.append(1)
        init(self)

    monkeypatch.setattr(group, "gamma", counted)
    monkeypatch.setattr(BoostParameters, "__post_init__", counted_init)
    p = {"v": np.array([0.3, 0.2, -0.1]), "x": np.array([1.0, 2.0, 3.0]), "u": np.array([0.5, 0.1, 0.2]),
         "a": np.array([0.1, 0.3, 0.2]), "tau": 1.5, "b_bar": None}
    scenario_transform(p, NATURAL, 0)
    assert len(calls) == 2
    assert len(built) == 2


def test_inverse_is_the_boost_by_minus_v():
    boost = BoostParameters(np.array([0.3, -0.2, 0.1]))
    assert boost.inverse is boost.inverse
    np.testing.assert_array_equal(boost.inverse.v, -boost.v)
    assert boost.inverse.gamma_v == boost.gamma_v
    assert boost.inverse.units is boost.units


@pytest.mark.parametrize("units", [NATURAL, SI])
def test_inverse_maps_equal_the_forward_maps_by_minus_v(units):
    # bit for bit, as when each inverse map built its own boost by -v
    rng = np.random.default_rng(29)
    boosts = [BoostParameters(np.zeros(3), units)]
    boosts += [BoostParameters(random_boost(rng).v * units.c, units) for _ in range(100)]
    for boost in boosts:
        minus = BoostParameters(-boost.v, units)
        x, u, a = rng.normal(size=(3, 3)) * units.c
        tau = rng.normal()
        b = collaborative_speed(u, units)
        pairs = [
            (boost_event_inverse(x, tau, b, boost), boost_event(x, tau, b, minus)),
            (boost_velocity_inverse(u, boost), boost_velocity(u, minus)),
            (boost_acceleration_inverse(a, u, boost), boost_acceleration(a, u, minus)),
            (boost_lightspeed_inverse(b, u, boost), boost_lightspeed(b, u, minus)),
        ]
        for got, want in pairs:
            np.testing.assert_array_equal(got, want)


class TestDstar:
    def test_identity_boost(self):
        d = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(dstar(d, BoostParameters(np.zeros(3))), d)

    def test_parallel_component_unchanged(self):
        boost = BoostParameters(np.array([0.6, 0.0, 0.0]))
        d = np.array([2.0, 0.0, 0.0])
        np.testing.assert_allclose(dstar(d, boost), d, rtol=1e-15)

    def test_perpendicular_divided_by_gamma(self):
        boost = BoostParameters(np.array([0.6, 0.0, 0.0]))
        d = np.array([0.0, 5.0, 0.0])
        np.testing.assert_allclose(dstar(d, boost), d / 1.25, rtol=1e-15)

    def test_general_split(self):
        for _ in range(25):
            boost = random_boost(RNG)
            d = RNG.normal(size=3)
            v = boost.v
            out = dstar(d, boost)
            par = (out @ v) / (v @ v) * v
            perp = out - par
            d_par = (d @ v) / (v @ v) * v
            np.testing.assert_allclose(par, d_par, rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(perp, (d - d_par) / boost.gamma_v, rtol=1e-12, atol=1e-14)


class TestEventTransform:
    def test_identity(self):
        x = np.array([1.0, -2.0, 0.5])
        out = boost_event(x, 3.0, 1.0, BoostParameters(np.zeros(3)))
        np.testing.assert_array_equal(out, x)

    def test_rest_source_is_lorentz(self):
        # b_bar = c turns x' = gamma(x* - (v/c) b_bar tau) into gamma(x - v t)
        boost = BoostParameters(np.array([0.6, 0.0, 0.0]))
        x = np.array([2.0, 0.0, 0.0])
        tau = 1.5
        out = boost_event(x, tau, 1.0, boost)
        assert out[0] == pytest.approx(1.25 * (2.0 - 0.6 * 1.5), rel=1e-15)

    def test_perpendicular_event_at_tau_zero(self):
        boost = BoostParameters(np.array([0.6, 0.0, 0.0]))
        x = np.array([0.0, 3.0, -1.0])
        np.testing.assert_allclose(boost_event(x, 0.0, 1.0, boost), x, rtol=1e-15)

    def test_rejects_b_bar_below_c(self):
        with pytest.raises(DomainError):
            boost_event(np.ones(3), 1.0, 0.5, BoostParameters(np.array([0.1, 0, 0])))


class TestVelocityTransform:
    def test_rest_source_seen_moving(self):
        boost = BoostParameters(np.array([0.6, 0.0, 0.0]))
        out = boost_velocity(np.zeros(3), boost)
        np.testing.assert_allclose(out, np.array([-0.75, 0.0, 0.0]), rtol=1e-15)

    def test_identity(self):
        u = np.array([0.3, 1.0, -2.0])
        np.testing.assert_array_equal(boost_velocity(u, BoostParameters(np.zeros(3))), u)

    def test_comoving_frame_sees_rest(self):
        u = np.array([0.75, 0.0, 0.0])
        boost = BoostParameters(np.array([0.6, 0.0, 0.0]))
        np.testing.assert_allclose(boost_velocity(u, boost), np.zeros(3), atol=1e-15)

    def test_lightspeed_consistency(self):
        for _ in range(100):
            boost = random_boost(RNG)
            u = RNG.normal(size=3) * RNG.uniform(0.0, 10.0)
            b = collaborative_speed(u)
            u_p = boost_velocity(u, boost)
            b_p = boost_lightspeed(b, u, boost)
            assert b_p**2 == pytest.approx(1.0 + u_p @ u_p, rel=1e-12)
            assert b_p >= 1.0

    def test_einstein_composition_oracle(self):
        for _ in range(100):
            boost = random_boost(RNG)
            u = RNG.normal(size=3) * RNG.uniform(0.0, 10.0)
            w = observer_from_proper(u)
            w_composed = einstein_velocity_composition(w, boost.v)
            w_from_group = observer_from_proper(boost_velocity(u, boost))
            np.testing.assert_allclose(w_from_group, w_composed, rtol=1e-10, atol=1e-12)


class TestLightspeedTransform:
    def test_rest_source(self):
        boost = BoostParameters(np.array([0.6, 0.0, 0.0]))
        assert boost_lightspeed(1.0, np.zeros(3), boost) == pytest.approx(1.25, rel=1e-15)

    def test_identity(self):
        assert boost_lightspeed(1.25, np.array([0.75, 0, 0]), BoostParameters(np.zeros(3))) == 1.25

    def test_comoving_case(self):
        u = np.array([0.75, 0.0, 0.0])
        boost = BoostParameters(np.array([0.6, 0.0, 0.0]))
        assert boost_lightspeed(1.25, u, boost) == pytest.approx(1.0, rel=1e-15)


class TestAcceleration:
    def test_zero_acceleration(self):
        boost = random_boost(RNG)
        out = boost_acceleration(np.zeros(3), RNG.normal(size=3), boost)
        np.testing.assert_allclose(out, np.zeros(3), atol=1e-15)

    def test_identity_boost(self):
        a = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(
            boost_acceleration(a, np.ones(3), BoostParameters(np.zeros(3))), a
        )

    def test_orthogonal_configuration(self):
        # u || v, a perpendicular to both: u.a = 0 and the star rule cancels gamma
        boost = BoostParameters(np.array([0.6, 0.0, 0.0]))
        u = np.array([2.0, 0.0, 0.0])
        a = np.array([0.0, 0.7, 0.0])
        np.testing.assert_allclose(boost_acceleration(a, u, boost), a, rtol=1e-15)


class TestRoundtrips:
    def test_full_roundtrip_constant_velocity(self):
        # event roundtrips hold on worldlines through the spacetime origin,
        # where t' = b_bar' tau / c is the Lorentz time of the same event
        for _ in range(200):
            boost = random_boost(RNG)
            u = RNG.normal(size=3) * RNG.uniform(0.0, 10.0)
            a = RNG.normal(size=3)
            tau = RNG.uniform(-2.0, 2.0)
            x = u * tau
            b = collaborative_speed(u)
            x_p = boost_event(x, tau, b, boost)
            u_p = boost_velocity(u, boost)
            a_p = boost_acceleration(a, u, boost)
            b_p = boost_lightspeed(b, u, boost)
            scale = max(1.0, np.max(np.abs(x)), np.max(np.abs(u)), np.max(np.abs(a)))
            np.testing.assert_allclose(
                boost_event_inverse(x_p, tau, b_p, boost), x, rtol=1e-10, atol=1e-10 * scale
            )
            np.testing.assert_allclose(
                boost_velocity_inverse(u_p, boost), u, rtol=1e-10, atol=1e-10 * scale
            )
            np.testing.assert_allclose(
                boost_acceleration_inverse(a_p, u_p, boost), a, rtol=1e-10, atol=1e-10 * scale
            )
            assert boost_lightspeed_inverse(b_p, u_p, boost) == pytest.approx(b, rel=1e-10)


@pytest.mark.parametrize("v", [[0.0, 0.0, 0.0], [-0.0, -0.0, -0.0], [0.0, -0.0, 0.0]])
def test_inverse_maps_at_zero_velocity_return_their_input(v):
    boost = BoostParameters(np.array(v))
    rng = np.random.default_rng(5)
    for _ in range(50):
        x, u, a = rng.normal(size=(3, 3))
        for vec in (x, u, a):
            vec[rng.random(3) < 0.5] = -0.0
        b = collaborative_speed(u)
        for got, want in (
            (boost_event_inverse(x, rng.normal(), b, boost), x),
            (boost_velocity_inverse(u, boost), u),
            (boost_acceleration_inverse(a, u, boost), a),
            (boost_lightspeed_inverse(b, u, boost), b),
        ):
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


class TestSourceDensities:
    def test_convective_invariant(self):
        u = np.array([0.75, 0.0, 0.0])
        s = SourceDensities.convective(2.0, u)
        np.testing.assert_allclose(s.J, s.rho * u / s.b, rtol=1e-15)

    def test_static_source_isotropic(self):
        s = SourceDensities.convective(1.7, np.zeros(3))
        for _ in range(100):
            out = boost_sources(s, random_boost(RNG))
            assert out.rho == pytest.approx(1.7, rel=1e-14)

    def test_identity_boost(self):
        s = SourceDensities.convective(1.0, np.array([1.0, 0.0, 0.0]))
        out = boost_sources(s, BoostParameters(np.zeros(3)))
        assert out.rho == s.rho
        np.testing.assert_array_equal(out.J, s.J)

    def test_eliminated_equals_convective_form(self):
        for _ in range(100):
            boost = random_boost(RNG)
            u = RNG.normal(size=3) * RNG.uniform(0.0, 5.0)
            s = SourceDensities.convective(0.9, u)
            out = boost_sources(s, boost)
            expected = 0.9 * convective_density_ratio(u, boost)
            assert out.rho == pytest.approx(expected, rel=1e-12)

    def test_degenerate_b_recovers_standard_density(self):
        # forcing b' = b = c in the general transform gives gamma(rho - J.v/c^2)
        for _ in range(50):
            boost = random_boost(RNG)
            rho = 1.3
            J = RNG.normal(size=3)
            standard = boost.gamma_v * (rho - (J @ boost.v))
            assert density_transform_general(rho, J, 1.0, 1.0, boost) == pytest.approx(
                standard, rel=1e-12
            )

    def test_current_transform_static_source(self):
        boost = BoostParameters(np.array([0.6, 0.0, 0.0]))
        s = SourceDensities.convective(1.0, np.zeros(3))
        out = boost_sources(s, boost)
        np.testing.assert_allclose(out.J, -1.25 * 1.0 * boost.v, rtol=1e-14)

    def test_tau_never_enters(self):
        # transforms are pointwise in tau: no operation takes or mutates it
        boost = random_boost(RNG)
        u = np.array([1.0, 2.0, 3.0])
        out1 = boost_velocity(u, boost)
        out2 = boost_velocity(u, boost)
        np.testing.assert_array_equal(out1, out2)
