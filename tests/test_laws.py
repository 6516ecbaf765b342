import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gwcoal import FiniteSupportLaw, LinearFractionalLaw, dirac
from gwcoal.errors import DomainError, EnvFormatError


def central_diff(f, s, h=1e-5):
    return (f(s + h) - f(s - h)) / (2 * h)


# strategy: dyadic-weight laws that sum to exactly 1 as Fractions
@st.composite
def exact_laws(draw):
    weights = draw(
        st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=6).filter(
            lambda w: sum(w) > 0
        )
    )
    total = sum(weights)
    return FiniteSupportLaw(tuple(Fraction(w, total) for w in weights))


class TestFiniteSupportLaw:
    def test_validation(self):
        with pytest.raises(EnvFormatError):
            FiniteSupportLaw(())
        with pytest.raises(EnvFormatError):
            FiniteSupportLaw((0.5, -0.1, 0.6))
        with pytest.raises(EnvFormatError):
            FiniteSupportLaw((0.5, 0.4))
        with pytest.raises(EnvFormatError):
            FiniteSupportLaw((Fraction(1, 2), Fraction(1, 3)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(EnvFormatError, match="non-finite"):
            FiniteSupportLaw((bad, 0.5, 0.5))

    def test_basic_quantities(self, binom_law):
        assert binom_law.mean() == pytest.approx(1.0)
        assert binom_law.max_children == 2
        assert binom_law.pmf(0) == 0.25
        assert binom_law.pmf(5) == 0.0
        assert not binom_law.is_exact

    def test_pgf_hand_values(self, binom_law):
        # (1+s)^2/4 at s=1/2 is 9/16
        assert binom_law.pgf(0.5) == pytest.approx(9 / 16)
        assert binom_law.pgf(0.0) == 0.25
        assert binom_law.pgf(1.0) == pytest.approx(1.0)

    def test_pgf_deriv_hand_values(self, binom_law):
        # derivative (1+s)/2, second derivative 1/2
        assert binom_law.pgf_deriv(0.2, 1) == pytest.approx(0.6)
        assert binom_law.pgf_deriv(0.7, 2) == pytest.approx(0.5)
        assert binom_law.pgf_deriv(0.3, 3) == 0.0

    def test_pgf_domain(self, binom_law):
        with pytest.raises(DomainError):
            binom_law.pgf(1.5)
        with pytest.raises(DomainError):
            binom_law.pgf_deriv(-0.1, 1)
        with pytest.raises(DomainError):
            binom_law.pgf_deriv(0.5, 0)

    def test_exact_arithmetic(self, binom_law_exact):
        assert binom_law_exact.is_exact
        v = binom_law_exact.pgf(Fraction(1, 2))
        assert v == Fraction(9, 16)
        assert isinstance(v, Fraction)

    def test_as_rational(self, binom_law):
        exact = binom_law.as_rational()
        assert exact.is_exact
        assert exact.probs == (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4))
        with pytest.raises(EnvFormatError):
            FiniteSupportLaw((1 / 3, 1 / 3, 1 / 3 + 2e-16)).as_rational()

    @given(exact_laws())
    def test_pgf_one_is_total_mass(self, law):
        assert law.pgf(Fraction(1)) == 1

    @given(exact_laws(), st.integers(min_value=1, max_value=4))
    def test_deriv_matches_term_by_term(self, law, k):
        # falling-factorial evaluation vs the defining sum
        s = Fraction(3, 7)
        expected = sum(
            p * math.perm(j, k) * s ** (j - k)
            for j, p in enumerate(law.probs)
            if j >= k
        )
        assert law.pgf_deriv(s, k) == expected

    @given(exact_laws())
    def test_pgf_monotone(self, law):
        pts = [Fraction(i, 8) for i in range(9)]
        vals = [law.pgf(s) for s in pts]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


class TestLinearFractionalLaw:
    def test_validation(self):
        with pytest.raises(EnvFormatError):
            LinearFractionalLaw(1.2, 0.5)
        with pytest.raises(EnvFormatError):
            LinearFractionalLaw(0.5, 0.0)
        with pytest.raises(EnvFormatError):
            LinearFractionalLaw(0.5, 1.0)

    def test_p_must_leave_q_below_one(self):
        # 1 - p rounds to 1.0 for every p <= 2**-54
        for p in (1e-17, 2.0 ** -54):
            with pytest.raises(EnvFormatError, match="2\\*\\*-54"):
                LinearFractionalLaw(1.0, p)
        assert LinearFractionalLaw(1.0, 2.0 ** -53).q < 1.0

    def test_pmf_and_moments(self, lf_law):
        assert lf_law.pmf(0) == 0.5
        assert lf_law.pmf(1) == 0.25
        assert lf_law.pmf(3) == 0.5 * 0.5 * 0.5 ** 2
        assert lf_law.mean() == pytest.approx(1.0)
        assert lf_law.max_children is None

    def test_pmf_sums_to_one(self):
        law = LinearFractionalLaw(0.7, 0.3)
        partial = sum(law.pmf(k) for k in range(200))
        tail = law.r * law.q ** 199
        assert partial + tail == pytest.approx(1.0, abs=1e-12)

    def test_pgf_matches_series(self, lf_law):
        s = 0.6
        series = sum(lf_law.pmf(k) * s ** k for k in range(300))
        assert lf_law.pgf(s) == pytest.approx(series, abs=1e-14)

    def test_pgf_deriv_matches_finite_difference(self):
        law = LinearFractionalLaw(0.6, 0.4)
        for s in (0.1, 0.5, 0.9):
            fd = central_diff(law.pgf, s)
            assert law.pgf_deriv(s, 1) == pytest.approx(fd, rel=1e-8)

    def test_higher_derivs_consistent(self, lf_law):
        # f^(k+1) should be the derivative of f^(k)
        for k in (1, 2, 3):
            fd = central_diff(lambda s: lf_law.pgf_deriv(s, k), 0.4)
            assert lf_law.pgf_deriv(0.4, k + 1) == pytest.approx(fd, rel=1e-7)

    def test_extinct_law(self):
        law = LinearFractionalLaw(0.0, 0.5)
        assert law.pmf(0) == 1.0
        assert law.max_children == 0
        assert law.pgf(0.3) == pytest.approx(1.0)

    def test_no_rational_mode(self, lf_law):
        with pytest.raises(EnvFormatError):
            lf_law.as_rational()


def test_dirac():
    law = dirac(2)
    assert law.pmf(2) == 1
    assert law.pmf(0) == 0
    assert law.mean() == 2
    assert law.is_exact
    assert dirac(0).max_children == 0

