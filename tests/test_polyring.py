import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdsolve.linear import LinearConfig
from tdsolve.polyring import ModularRing, is_prime, mod_inverse, poly_mul, poly_trim, sample_prime


def test_mul_clips_at_cap():
    # (1 + x)^2 with cap 2 loses the x^2 term
    assert poly_mul([1, 1], [1, 1], 2) == [1, 2]


def test_identities():
    p = [2, 0, 5]
    assert poly_mul(p, [], 8) == []
    assert poly_mul(p, [1], 8) == p
    assert poly_mul([1], p, 8) == p


def test_hand_convolution():
    assert poly_mul([2, 3], [1, 1], 8) == [2, 5, 3]


def test_modular_canonical_representatives():
    ring = ModularRing(5)
    assert [ring.normalize(c) for c in (-1, 7)] == [4, 2]


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
    st.lists(st.integers(0, 10**6), max_size=6),
    st.lists(st.integers(0, 10**6), max_size=6),
    st.integers(1, 10),
)
@settings(max_examples=60)
def test_exact_vs_modular_homomorphism(a, b, cap):
    """Reducing an exact product mod p matches reducing the product of the
    reduced factors, so a count can be reduced once, at the end."""
    p = 10007

    def reduced(coeffs):
        return poly_trim([c % p for c in coeffs])

    exact = poly_mul(poly_mul(list(a), list(b), cap), list(a), cap)
    ra, rb = reduced(list(a)), reduced(list(b))
    assert reduced(exact) == reduced(poly_mul(poly_mul(ra, rb, cap), ra, cap))


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
    cfg = LinearConfig()
    assert cfg.prime_bound(1, 1) == max(21, 32)
    assert cfg.prime_bound(50, 6) == cfg.word_cap
