"""Truncated polynomial arithmetic over exact or modular integer coefficients.

Polynomials are dense little-endian coefficient lists with all degrees at or
above the cap discarded.  Division by the formal variable is a coefficient
shift that annihilates the low terms; it is *not* ring division (the free
term is lost, by design).

The counting engine calls the list helpers `poly_mul` and `poly_trim` on its
hot path; `TruncatedPolynomial` wraps them, `poly_add` and `poly_shift_down`
as a value type.  The zero polynomial is the empty list and coefficient
lists carry no trailing zeros.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# ---------------------------------------------------------------------------
# coefficient rings


class CoefficientRing:
    """Common interface: exact integers or integers modulo m."""

    modulus: int | None

    def normalize(self, c: int) -> int:
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def is_zero(self, c) -> bool:
        return c == 0


class ExactRing(CoefficientRing):
    """Arbitrary-precision integers."""

    modulus = None

    def normalize(self, c):
        return c

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def __repr__(self):
        return "ExactRing()"

    def __eq__(self, other):
        return isinstance(other, ExactRing)

    def __hash__(self):
        return hash("ExactRing")


class ModularRing(CoefficientRing):
    """Integers modulo m, canonical representatives in [0, m).

    ``prime`` records whether the modulus is known prime; inversion is only
    available in that case.
    """

    def __init__(self, m: int, prime: bool = False):
        if m < 2:
            raise ValueError("modulus must be at least 2")
        self.modulus = m
        self.prime = prime

    def normalize(self, c):
        return c % self.modulus

    def add(self, a, b):
        return (a + b) % self.modulus

    def sub(self, a, b):
        return (a - b) % self.modulus

    def mul(self, a, b):
        return (a * b) % self.modulus

    def __repr__(self):
        return f"ModularRing({self.modulus}, prime={self.prime})"

    def __eq__(self, other):
        return isinstance(other, ModularRing) and other.modulus == self.modulus

    def __hash__(self):
        return hash(("ModularRing", self.modulus))


def mod_inverse(c: int, ring: ModularRing) -> int:
    """Inverse of c modulo a prime.  Raises ZeroDivisionError when c vanishes,
    which callers treat as a failed color / potential false negative."""
    if not isinstance(ring, ModularRing) or not ring.prime:
        raise ValueError("inversion requires a prime modulus")
    c = c % ring.modulus
    if c == 0:
        raise ZeroDivisionError("denominator vanished in the modular ring")
    return pow(c, -1, ring.modulus)


# ---------------------------------------------------------------------------
# low-level coefficient-list helpers (hot path; zero == [])


def poly_trim(coeffs: list) -> list:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def poly_add(a: list, b: list, mod: int | None = None) -> list:
    if not a:
        return list(b)
    if not b:
        return list(a)
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    if mod is not None:
        out = [c % mod for c in out]
    return poly_trim(out)


def poly_mul(a: list, b: list, cap: int, mod: int | None = None) -> list:
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
    if mod is not None:
        out = [c % mod for c in out]
    return poly_trim(out)


def poly_shift_down(a: list, e: int) -> list:
    """Division by x^e: low coefficients are dropped, not carried."""
    if e == 0:
        return list(a)
    return poly_trim(a[e:])


# ---------------------------------------------------------------------------
# public value type


@dataclass(frozen=True)
class TruncatedPolynomial:
    """Coefficient sequence of bounded degree over a coefficient ring."""

    coeffs: tuple
    cap: int
    ring: CoefficientRing = field(default_factory=ExactRing)

    @staticmethod
    def from_coeffs(coeffs, cap: int, ring: CoefficientRing | None = None) -> "TruncatedPolynomial":
        ring = ring or ExactRing()
        cs = [ring.normalize(c) for c in list(coeffs)[:cap]]
        return TruncatedPolynomial(tuple(poly_trim(cs)), cap, ring)

    @staticmethod
    def zero(cap: int, ring: CoefficientRing | None = None) -> "TruncatedPolynomial":
        return TruncatedPolynomial((), cap, ring or ExactRing())

    @staticmethod
    def one(cap: int, ring: CoefficientRing | None = None) -> "TruncatedPolynomial":
        return TruncatedPolynomial.from_coeffs([1], cap, ring)

    def _check(self, other: "TruncatedPolynomial") -> None:
        if self.cap != other.cap or self.ring != other.ring:
            raise ValueError("ring or degree-cap mismatch")

    def add(self, other: "TruncatedPolynomial") -> "TruncatedPolynomial":
        self._check(other)
        cs = poly_add(list(self.coeffs), list(other.coeffs), self.ring.modulus)
        return TruncatedPolynomial(tuple(cs), self.cap, self.ring)

    def mul(self, other: "TruncatedPolynomial") -> "TruncatedPolynomial":
        self._check(other)
        cs = poly_mul(list(self.coeffs), list(other.coeffs), self.cap, self.ring.modulus)
        return TruncatedPolynomial(tuple(cs), self.cap, self.ring)

    def div_by_x_power(self, e: int) -> "TruncatedPolynomial":
        if e < 0:
            raise ValueError("exponent must be nonnegative")
        return TruncatedPolynomial(tuple(poly_shift_down(list(self.coeffs), e)), self.cap, self.ring)

    def free_term(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    def is_zero(self) -> bool:
        return not self.coeffs


# ---------------------------------------------------------------------------
# primality and prime sampling

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; the witness set is complete for every
    modulus the sampler can produce (far beyond 64-bit)."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
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


@dataclass(frozen=True)
class PrimeSamplerConfig:
    """Interval (A, 2A) for the random modulus.

    A = max(lower_threshold, n^5 * 2^(5 * error_exponent * d^2)), capped so
    the sampled prime fits in two machine words.
    """

    lower_threshold: int = 21
    error_exponent: int = 1
    word_cap: int = 1 << 62

    def interval_bound(self, n: int, d: int) -> int:
        raw = max(self.lower_threshold, n**5 * 2 ** (5 * self.error_exponent * d * d))
        return min(raw, self.word_cap)


def sample_prime(bound: int, rng: random.Random, max_trials: int | None = None) -> int:
    """Uniform prime strictly between bound and 2*bound (Las Vegas)."""
    if bound < 2:
        raise ValueError("interval bound too small")
    trials = 0
    while True:
        x = rng.randrange(bound + 1, 2 * bound)
        if is_prime(x):
            return x
        trials += 1
        if max_trials is not None and trials >= max_trials:
            raise RuntimeError(f"no prime found in ({bound}, {2 * bound}) after {trials} trials")
