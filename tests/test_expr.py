"""Command-line polynomial literals: grammar coverage and error reporting."""

import pytest

from complexou import ExprError, PolyZZbar, parse_poly


class TestParsing:
    def test_basic_product_and_difference(self):
        assert parse_poly("z*zbar - 2") == PolyZZbar({(1, 1): 1.0, (0, 0): -2.0})

    def test_complex_coefficient(self):
        assert parse_poly("(1+i)*z^2") == PolyZZbar({(2, 0): 1.0 + 1.0j})

    def test_sign_folding(self):
        assert parse_poly("--z") == PolyZZbar.z()
        assert parse_poly("-+-+z") == PolyZZbar.z()
        assert parse_poly("2 - -3") == PolyZZbar.constant(5.0)

    def test_unicode_minus(self):
        assert parse_poly("z − 1") == parse_poly("z - 1")

    def test_number_formats(self):
        assert parse_poly("1e-3*z") == PolyZZbar({(1, 0): 1e-3})
        assert parse_poly(".5*z") == PolyZZbar({(1, 0): 0.5})
        assert parse_poly("2.75") == PolyZZbar.constant(2.75)

    def test_powers_bind_tighter_than_products(self):
        assert parse_poly("z^3") == PolyZZbar({(3, 0): 1.0})
        assert parse_poly("2*z^2*zbar") == PolyZZbar({(2, 1): 2.0})
        assert parse_poly("(z + zbar)^2") == PolyZZbar({(2, 0): 1.0, (1, 1): 2.0, (0, 2): 1.0})

    def test_imaginary_unit(self):
        assert parse_poly("i*i") == PolyZZbar.constant(-1.0)
        assert parse_poly("i^2 + 1") == PolyZZbar.zero()

    def test_large_finite_numbers(self):
        assert parse_poly("1e300*z") == PolyZZbar({(1, 0): 1e300})
        assert parse_poly("2^1000") == PolyZZbar.constant(2.0**1000)

    def test_whitespace_insensitive(self):
        assert parse_poly("  z *  zbar-2 ") == parse_poly("z*zbar - 2")


class TestErrors:
    def test_unexpected_character(self):
        with pytest.raises(ExprError, match="unexpected character"):
            parse_poly("z + w")

    def test_implicit_multiplication_rejected(self):
        with pytest.raises(ExprError):
            parse_poly("2z")

    def test_negative_exponent_rejected(self):
        with pytest.raises(ExprError, match="exponent"):
            parse_poly("z^-1")

    def test_symbol_exponent_rejected(self):
        with pytest.raises(ExprError, match="exponent"):
            parse_poly("z^zbar")

    def test_unclosed_paren(self):
        with pytest.raises(ExprError, match="missing"):
            parse_poly("(z")

    def test_missing_operand(self):
        with pytest.raises(ExprError, match=r"unexpected end of expression in 'z\+'"):
            parse_poly("z+")
        with pytest.raises(ExprError, match=r"unexpected '\)' at position 2"):
            parse_poly("z*)")

    def test_empty_expression(self):
        with pytest.raises(ExprError, match="empty"):
            parse_poly("   ")

    def test_trailing_garbage(self):
        with pytest.raises(ExprError):
            parse_poly("z )")

    @pytest.mark.parametrize("text", ["1e400", "2^3000*z", "1e200*1e200*z", "1e308 + 1e308"])
    def test_non_finite_coefficient(self, text):
        with pytest.raises(ExprError, match="not finite"):
            parse_poly(text)

    def test_exponent_too_long(self):
        with pytest.raises(ExprError, match="too long at position 2"):
            parse_poly("z^" + "7" * 5000)

    def test_error_is_a_value_error(self):
        with pytest.raises(ValueError):
            parse_poly("@")
