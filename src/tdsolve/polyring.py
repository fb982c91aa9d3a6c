"""Coefficient rings, the coefficient-list multiply and multiply-and-
accumulate kernels, primality and prime sampling.

Polynomials are dense little-endian coefficient lists with all degrees at or
above the cap discarded.  The zero polynomial is the empty list and
coefficient lists carry no trailing zeros.  The counting engine calls
`poly_mul`, `poly_addmul` and `poly_trim` on its hot path, in exact integers.
"""

from __future__ import annotations

import random

# ---------------------------------------------------------------------------
# coefficient rings


class ExactRing:
    """Arbitrary-precision integers."""

    modulus: int | None = None

    def normalize(self, c: int) -> int:
        return c

    def is_zero(self, c: int) -> bool:
        return c == 0

    def __repr__(self):
        return "ExactRing()"


class ModularRing(ExactRing):
    """Integers modulo m, canonical representatives in [0, m)."""

    def __init__(self, m: int):
        if m < 2:
            raise ValueError("modulus must be at least 2")
        self.modulus = m

    def normalize(self, c: int) -> int:
        return c % self.modulus

    def __repr__(self):
        return f"ModularRing({self.modulus})"


# ---------------------------------------------------------------------------
# coefficient lists (hot path; zero == [])


def poly_trim(coeffs: list) -> list:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def poly_mul(a: list, b: list, cap: int) -> list:
    if not a or not b:
        return []
    la, lb = len(a), len(b)
    if la == 1 and a[0] == 1:
        return list(b)
    if lb == 1 and b[0] == 1:
        return list(a)
    n = min(la + lb - 1, cap)
    out = [0] * n
    for i, ca in enumerate(a):
        if ca == 0 or i >= cap:
            continue
        top = min(lb, n - i)
        for j in range(top):
            out[i + j] += ca * b[j]
    return poly_trim(out)


def poly_addmul(out: list, val: list, shift: int, scale: int) -> None:
    """out += scale * x^shift * val in place, for a shift of either sign:
    out grows as needed, terms that would land below x^0 are dropped, and
    any trailing zeros are left for poly_trim."""
    if shift < 0:
        val = val[-shift:]
        shift = 0
    grow = len(val) + shift - len(out)
    if grow > 0:
        out += [0] * grow
    for i, c in enumerate(val, shift):
        out[i] += scale * c


# ---------------------------------------------------------------------------
# primality and prime sampling

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Sinclair's seven bases: a Miller-Rabin test with them is exact below 2^64
_MR_BASES_64 = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin after trial division by the first twelve
    primes: with Sinclair's seven bases below 2^64, and with those twelve
    primes as bases above it (complete far beyond any modulus the sampler
    can produce).  A base that n divides is skipped."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES_64 if n < 1 << 64 else _MR_WITNESSES:
        a %= n
        if a == 0:
            continue
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


def sample_prime(bound: int, rng: random.Random) -> int:
    """Uniform prime strictly between bound and 2*bound (Las Vegas)."""
    if bound < 2:
        raise ValueError("interval bound too small")
    while True:
        x = rng.randrange(bound + 1, 2 * bound)
        if is_prime(x):
            return x
