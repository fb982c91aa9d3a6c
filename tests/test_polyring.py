import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdsolve.polyring import (
    ModularRing,
    PrimeSamplerConfig,
    TruncatedPolynomial,
    is_prime,
    mod_inverse,
    poly_add,
    poly_mul,
    poly_shift_down,
    sample_prime,
)


def TP(coeffs, cap=8, ring=None):
    return TruncatedPolynomial.from_coeffs(coeffs, cap, ring)


def test_mul_clips_at_cap():
    # (1 + x)^2 with cap 2 loses the x^2 term
    p = TP([1, 1], cap=2)
    assert p.mul(p).coeffs == (1, 2)


def test_identities():
    p = TP([2, 0, 5])
    zero = TruncatedPolynomial.zero(8)
    one = TruncatedPolynomial.one(8)
    assert p.add(zero) == p
    assert p.mul(one) == p


def test_hand_convolution():
    p = TP([2, 3]).mul(TP([1, 1]))
    assert p.coeffs == (2, 5, 3)


def test_div_by_x_shifts():
    assert TP([0, 3, 1]).div_by_x_power(1).coeffs == (3, 1)


def test_div_by_x_annihilates_free_term():
    # (x + 5) / x = 1: the constant term vanishes instead of carrying over
    assert TP([5, 1]).div_by_x_power(1).coeffs == (1,)


def test_div_by_x_zero_power_is_identity():
    p = TP([4, 0, 2])
    assert p.div_by_x_power(0) == p


def test_free_term():
    assert TP([7, 2]).free_term() == 7
    assert TruncatedPolynomial.zero(4).free_term() == 0
    assert TP([0, 1]).free_term() == 0


def test_ring_mismatch_rejected():
    with pytest.raises(ValueError):
        TP([1], cap=4).add(TP([1], cap=5))
    with pytest.raises(ValueError):
        TP([1], ring=ModularRing(7, prime=True)).add(TP([1]))


def test_modular_canonical_representatives():
    ring = ModularRing(5)
    p = TP([-1, 7], ring=ring)
    assert p.coeffs == (4, 2)


def test_mod_inverse():
    ring = ModularRing(7, prime=True)
    assert mod_inverse(3, ring) == 5
    assert mod_inverse(1, ring) == 1
    with pytest.raises(ZeroDivisionError):
        mod_inverse(0, ring)
    with pytest.raises(ZeroDivisionError):
        mod_inverse(14, ring)


def test_inverse_needs_prime_ring():
    with pytest.raises(ValueError):
        mod_inverse(3, ModularRing(8))


@given(st.lists(st.integers(-50, 50), max_size=6), st.lists(st.integers(-50, 50), max_size=6))
def test_low_level_mul_matches_schoolbook(a, b):
    cap = 12
    got = poly_mul(list(a), list(b), cap)
    ref = [0] * cap
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            if i + j < cap:
                ref[i + j] += ca * cb
    while ref and ref[-1] == 0:
        ref.pop()
    assert got == ref


@given(
    st.lists(st.integers(0, 100), max_size=6),
    st.lists(st.integers(0, 100), max_size=6),
    st.integers(0, 4),
)
@settings(max_examples=60)
def test_exact_vs_modular_homomorphism(a, b, e):
    """Reducing an exact computation mod p matches doing it all mod p."""
    p = 10007
    cap = 10
    exact = poly_shift_down(poly_mul(poly_add(list(a), list(b)), list(a), cap), e)
    modular = poly_shift_down(
        poly_mul(poly_add([x % p for x in a], [x % p for x in b], p), [x % p for x in a], cap, p),
        e,
    )
    reduced = [c % p for c in exact]
    while reduced and reduced[-1] == 0:
        reduced.pop()
    assert reduced == modular


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43}
    for n in range(45):
        assert is_prime(n) == (n in primes)


def test_is_prime_large_words():
    assert is_prime((1 << 61) - 1)  # Mersenne prime
    assert not is_prime((1 << 62) + 1)


def test_sample_prime_interval_small():
    rng = random.Random(0)
    seen = {sample_prime(10, rng) for _ in range(200)}
    assert seen == {11, 13, 17, 19}


def test_sample_prime_tiny_interval():
    assert sample_prime(2, random.Random(1)) == 3


def test_sample_prime_always_prime_in_range():
    rng = random.Random(3)
    for _ in range(1000):
        p = sample_prime(10**4, rng)
        assert 10**4 < p < 2 * 10**4
        assert is_prime(p)


def test_sampler_interval_bound_caps_at_word_range():
    cfg = PrimeSamplerConfig()
    assert cfg.interval_bound(1, 1) == max(21, 32)
    assert cfg.interval_bound(50, 6) == cfg.word_cap
