import json
from fractions import Fraction

import pytest

from gwcoal import (
    Environment,
    FiniteSupportLaw,
    LinearFractionalLaw,
    constant_environment,
    environment_from_dict,
    lf_a1_tail,
    load_environment,
    save_environment,
)
from gwcoal.errors import EnvFormatError, HorizonError, NotLinearFractionalError
from gwcoal.pgf import eta_law_at_depth


class TestEnvironment:
    def test_horizon_and_indexing(self, binom3, varying3):
        assert binom3.horizon == 3
        # level 1 of the table reproduces by the newest law
        newest = Environment(varying3.laws[2:])
        assert varying3.levels.eta(1) == newest.levels.eta(1)
        assert varying3.levels.eta(1) != Environment(varying3.laws[:1]).levels.eta(1)
        with pytest.raises(HorizonError):
            binom3.levels.eta(0)
        with pytest.raises(HorizonError):
            binom3.levels.eta(4)

    def test_shift_drops_oldest(self, varying3):
        sub = varying3.shift(1)
        assert sub.horizon == 2
        assert sub.laws == varying3.laws[1:]
        assert varying3.shift(0).laws == varying3.laws
        with pytest.raises(HorizonError):
            varying3.shift(4)
        with pytest.raises(HorizonError):
            varying3.shift(-1)

    def test_kind_predicates(self, binom3, lf_half_n6):
        assert binom3.is_finite_support and not binom3.is_linear_fractional
        assert lf_half_n6.is_linear_fractional and not lf_half_n6.is_finite_support
        mixed = Environment((binom3.laws[0], lf_half_n6.laws[0]))
        assert not mixed.is_finite_support and not mixed.is_linear_fractional

    def test_round_trip(self, tmp_path, varying3):
        path = tmp_path / "env.json"
        save_environment(varying3, str(path))
        back = load_environment(str(path))
        assert back == varying3
        assert back.digest() == varying3.digest()

    def test_digest_distinguishes(self, binom3, varying3):
        assert binom3.digest() != varying3.digest()
        assert len(binom3.digest()) == 12

    def test_as_rational(self, varying3):
        exact = varying3.as_rational()
        assert all(law.is_exact for law in exact.laws)
        assert float(exact.laws[2].probs[2]) == varying3.laws[2].probs[2]

    def test_constant_environment(self, binom_law):
        env = constant_environment(binom_law, 4)
        assert env.horizon == 4
        assert all(law is binom_law for law in env.laws)
        with pytest.raises(EnvFormatError):
            constant_environment(binom_law, 0)


class TestEnvironmentFormat:
    def test_bad_documents(self):
        with pytest.raises(EnvFormatError):
            environment_from_dict([])
        with pytest.raises(EnvFormatError):
            environment_from_dict({})
        with pytest.raises(EnvFormatError):
            environment_from_dict({"laws": []})
        with pytest.raises(EnvFormatError):
            environment_from_dict({"horizon": 2, "laws": [{"type": "pmf", "p": [1.0]}]})

    def test_bad_entry_is_named(self):
        doc = {"laws": [{"type": "pmf", "p": [1.0]}, {"type": "zzz"}]}
        with pytest.raises(EnvFormatError, match=r"laws\[1\]"):
            environment_from_dict(doc)
        doc = {"laws": [{"type": "pmf", "p": [0.5, 0.6]}]}
        with pytest.raises(EnvFormatError, match=r"laws\[0\]"):
            environment_from_dict(doc)
        doc = {"laws": [{"type": "lf", "r": 0.5}]}
        with pytest.raises(EnvFormatError, match="'r' and 'p'"):
            environment_from_dict(doc)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(EnvFormatError):
            load_environment(str(tmp_path / "absent.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(EnvFormatError):
            load_environment(str(bad))

    def test_horizon_field_optional(self):
        env = environment_from_dict({"laws": [{"type": "pmf", "p": [0.5, 0.5]}]})
        assert env.horizon == 1


class TestLfClosedForms:
    def test_tail_rejects_other_laws(self, binom3):
        with pytest.raises(NotLinearFractionalError):
            lf_a1_tail(binom3, 1)

    def test_s_coefficients_constant_critical(self, lf_half_n6):
        # r = p = 1/2 makes every s-coefficient one, so the tail is 1/(1 + n)
        assert lf_a1_tail(lf_half_n6, 4) == pytest.approx(1 / 5)

    def test_eta_success_first_level(self, lf_varying3):
        # at level one the success probability is the newest law's p
        newest = lf_varying3.laws[-1]
        assert eta_law_at_depth(lf_varying3, 1).geom == pytest.approx(newest.p)

    def test_tail_decreases(self, lf_varying3):
        tails = [lf_a1_tail(lf_varying3, n) for n in (1, 2, 3)]
        assert tails[0] > tails[1] > tails[2] > 0
