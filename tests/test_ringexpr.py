import math
import random

import pytest

from zdgraph import rings as R
from zdgraph.errors import RingSemanticError, RingSyntaxError
from zdgraph.ringexpr import _factor_prime_power, parse_ring_spec, render_ring_spec


def test_parse_examples():
    assert parse_ring_spec("Z/27") == R.Zn(27)
    assert parse_ring_spec("Z/2 x GF(3)") == R.Product((R.Zn(2), R.GF(3, 1)))
    assert parse_ring_spec("Z/4[x]/(x^2)") == R.MonicQuotient(R.Zn(4), (0, 0, 1))
    assert parse_ring_spec("GF(9)") == R.GF(3, 2)
    assert parse_ring_spec("GF(16)") == R.GF(2, 4)
    assert parse_ring_spec("FamA(2,3)") == R.FamA(2, 3)
    assert parse_ring_spec("FamB(5)") == R.FamB(5)
    assert parse_ring_spec("Z/8[x]/(x^3+2x+1)") == R.MonicQuotient(R.Zn(8), (1, 2, 0, 1))
    assert parse_ring_spec("Z/4[x]/(x^2-2)") == R.MonicQuotient(R.Zn(4), (2, 0, 1))
    assert parse_ring_spec("Z/2 x Z/2 x Z/2") == R.Product((R.Zn(2),) * 3)


def test_gf_and_zn_are_distinct_specs():
    assert parse_ring_spec("GF(5)") != parse_ring_spec("Z/5")
    g = R.make_ring(parse_ring_spec("GF(5)"))
    z = R.make_ring(parse_ring_spec("Z/5"))
    assert all(g.mul(a, b) == z.mul(a, b) for a in range(5) for b in range(5))


@pytest.mark.parametrize("text", [
    "Z/27",
    "Z/2 x GF(3)",
    "Z/4[x]/(x^2)",
    "Z/9[x]/(x^3+x+2)",
    "FamA(2,3)",
    "FamB(5)",
    "FamC(7)",
    "FamD(3)",
    "GF(16)",
    "Z/6 x Z/10 x FamA(2,2)",
])
def test_round_trip(text):
    spec = parse_ring_spec(text)
    assert parse_ring_spec(render_ring_spec(spec)) == spec


def _random_spec(rng: random.Random, depth=0):
    choice = rng.randrange(8 if depth else 9)
    if choice == 0:
        return R.Zn(rng.randrange(2, 50))
    if choice == 1:
        return R.GF(rng.choice([2, 3, 5, 7]), rng.randrange(1, 4))
    if choice == 2:
        n = rng.randrange(2, 10)
        deg = rng.randrange(1, 4)
        coeffs = [rng.randrange(n) for _ in range(deg)] + [1]
        return R.MonicQuotient(R.Zn(n), tuple(coeffs))
    if choice == 3:
        return R.FamA(rng.choice([2, 3, 5]), rng.randrange(1, 5))
    if choice == 4:
        return R.FamB(rng.choice([2, 3, 5]))
    if choice == 5:
        return R.FamC(rng.choice([2, 3, 5]))
    if choice == 6:
        return R.FamD(rng.choice([2, 3, 5]))
    if choice == 7:
        return R.Zn(rng.randrange(2, 1000))
    return R.Product(tuple(_random_spec(rng, depth + 1) for _ in range(rng.randrange(2, 4))))


def test_round_trip_random_specs():
    rng = random.Random(123)
    for _ in range(500):
        spec = _random_spec(rng)
        assert parse_ring_spec(render_ring_spec(spec)) == spec


def test_semantic_errors():
    with pytest.raises(RingSemanticError):
        parse_ring_spec("Z/1")
    with pytest.raises(RingSemanticError):
        parse_ring_spec("GF(12)")
    with pytest.raises(RingSemanticError):
        parse_ring_spec("GF(1)")
    with pytest.raises(RingSemanticError):
        parse_ring_spec("FamA(4,2)")
    with pytest.raises(RingSemanticError):
        parse_ring_spec("FamA(2,0)")
    with pytest.raises(RingSemanticError):
        parse_ring_spec("Z/4[x]/(2x^2)")
    with pytest.raises(RingSemanticError):
        parse_ring_spec("Z/4[x]/(3)")


def test_gf_orders_factor_without_trial_division_to_sqrt():
    """Prime-power orders against trial division, plus large primes, prime
    powers and semiprimes that a loop up to sqrt(q) could not finish."""
    def trial(q):
        p = next((f for f in range(2, math.isqrt(q) + 1) if q % f == 0), q)
        k = 0
        while q % p == 0:
            q //= p
            k += 1
        return (p, k) if q == 1 else None

    assert all(_factor_prime_power(q) == trial(q) for q in range(2, 20_000))
    assert _factor_prime_power(1) is None and _factor_prime_power(0) is None
    big = 10 ** 18 + 3
    assert _factor_prime_power(big) == (big, 1)
    assert parse_ring_spec(f"GF({big})") == R.GF(big, 1)
    for p in (1031, 65537, 10 ** 9 + 7):
        for k in (1, 2, 3, 6, 7):
            assert _factor_prime_power(p ** k) == (p, k)
            assert _factor_prime_power(p ** k * 1033) is None
    assert _factor_prime_power((10 ** 9 + 7) * (10 ** 9 + 9)) is None
    assert _factor_prime_power((1031 * 1033) ** 3) is None


def test_syntax_errors_carry_positions():
    cases = ["", "Zebra", "Z/", "Z/4[x]/(x^2", "GF(", "FamA(2", "Z/6 x ", "x Z/6", "Z/27 junk"]
    for text in cases:
        with pytest.raises(RingSyntaxError) as info:
            parse_ring_spec(text)
        assert 1 <= info.value.position <= len(text) + 2, text
        assert info.value.expected


def test_fuzz_never_crashes():
    rng = random.Random(99)
    for _ in range(5000):
        length = rng.randrange(0, 30)
        text = "".join(chr(rng.randrange(32, 127)) for _ in range(length))
        try:
            parse_ring_spec(text)
        except (RingSyntaxError, RingSemanticError):
            pass


def test_grammar_bounds_on_exponents_and_numbers():
    assert parse_ring_spec("Z/2[x]/(x^64)").modulus[-1] == 1
    assert parse_ring_spec("FamA(2,64)") == R.FamA(2, 64)
    assert parse_ring_spec("Z/" + "9" * 24) == R.Zn(10 ** 24 - 1)
    for text, column in (("Z/2[x]/(x^65)", 11), ("FamA(2,65)", 8), ("Z/" + "9" * 25, 3),
                         ("GF(" + "7" * 30 + ")", 4), ("Z/4[x]/(" + "1" * 25 + "x^2)", 9)):
        with pytest.raises(RingSyntaxError) as info:
            parse_ring_spec(text)
        assert info.value.position == column, text
        assert len(str(info.value)) < 60, text


def test_cap_is_compared_in_log_form_with_short_names():
    """Sizes far past the cap are refused without computing them, and the
    spec is named by its grammar form, shortened."""
    from zdgraph.errors import SizeCapExceeded

    p = 99999999999999999989  # prime; FamB(p) has p^p elements
    with pytest.raises(SizeCapExceeded, match=r"^FamB\(99999999999999999989\) has more .* \(about 10\^\d{22}\)$"):
        R.make_ring(R.FamB(p))
    long_modulus = R.MonicQuotient(R.Zn(4), (0,) * 100_000 + (1,))
    with pytest.raises(SizeCapExceeded) as info:
        R.make_ring(long_modulus)
    assert str(info.value).startswith("Z/4[x]/(x^100000)") and len(str(info.value)) < 160
    with pytest.raises(SizeCapExceeded):
        R.make_ring(R.Zn(100_001))
    assert R.make_ring(R.Zn(100_000)).size == 100_000
    assert R.make_ring(R.Zn(7), cap=7).size == 7
    with pytest.raises(SizeCapExceeded):
        R.make_ring(R.Zn(7), cap=0)
