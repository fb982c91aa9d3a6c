import random

from hypothesis import given, settings
from hypothesis import strategies as st

from tdsolve import polyring
from tdsolve.polyring import ModularRing, is_prime, poly_addmul, poly_mul, poly_trim, sample_prime


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
    st.lists(st.integers(-50, 50), max_size=6),
    st.lists(st.integers(-50, 50), max_size=6),
    st.integers(-4, 4),
    st.sampled_from([0, 1, 2**200]) | st.integers(-(2**200), -1),
)
def test_addmul_matches_a_dict_of_degrees(out, val, shift, scale):
    ref = dict(enumerate(out))
    for i, c in enumerate(val):
        if i + shift >= 0:
            ref[i + shift] = ref.get(i + shift, 0) + scale * c
    got, before = list(out), list(val)
    poly_addmul(got, val, shift, scale)
    assert val == before
    assert poly_trim(got) == poly_trim([ref.get(i, 0) for i in range(max(ref, default=-1) + 1)])


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


def twelve_witness_is_prime(n):
    """Miller-Rabin with the first twelve primes as bases for every n: the
    test is_prime replaces with Sinclair's bases below 2^64."""
    if n < 2:
        return False
    witnesses = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in witnesses:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in witnesses:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_is_prime_agrees_with_twelve_witnesses():
    for n in range(2 * 10**5):
        assert is_prime(n) == twelve_witness_is_prime(n), n
    # an interval of 62-bit numbers, two machine words
    bound = 1 << 62
    rng = random.Random(8)
    for _ in range(2 * 10**5):
        n = rng.randrange(bound + 1, 2 * bound)
        assert is_prime(n) == twelve_witness_is_prime(n), n
    # a strong pseudoprime to the bases 2, 3, ..., 23
    assert is_prime(3825123056546413051) == twelve_witness_is_prime(3825123056546413051)
    assert not is_prime(3825123056546413051)
    assert is_prime((1 << 64) + 13) and not is_prime((1 << 64) + 1)


def test_sample_prime_draws_as_with_twelve_witnesses(monkeypatch):
    bound = 1 << 62
    for seed in range(200):
        fast, slow = random.Random(seed), random.Random(seed)
        p = sample_prime(bound, fast)
        with monkeypatch.context() as m:
            m.setattr(polyring, "is_prime", twelve_witness_is_prime)
            assert sample_prime(bound, slow) == p
        assert fast.getstate() == slow.getstate()
