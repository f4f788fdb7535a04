"""Arithmetic over GF(2^r) for 1 <= r <= 8.

Field elements are plain integers in [0, q-1] whose bits are the
polynomial-basis coordinates.  A :class:`Field` carries exp/log tables for
the primitive element alpha, so multiplication and inversion are table
lookups.  Exponents are always stored reduced to [0, q-2] and all exponent
arithmetic is done modulo q-1.

Default defining polynomials (conventional choices, one per degree):

    r=1 : x + 1              0b11
    r=2 : x^2 + x + 1        0b111
    r=3 : x^3 + x + 1        0b1011
    r=4 : x^4 + x + 1        0b10011
    r=5 : x^5 + x^2 + 1      0b100101
    r=6 : x^6 + x + 1        0b1000011
    r=7 : x^7 + x^3 + 1      0b10001001
    r=8 : x^8+x^4+x^3+x^2+1  0b100011101

r=1 is the degenerate GF(2) case: the only nonzero element is 1, which
doubles as alpha, and every edge label collapses to 1.
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_PRIMITIVE_POLYS: dict[int, int] = {
    1: 0b11,
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10001001,
    8: 0b100011101,
}


class NonPrimitivePolyError(ValueError):
    """The supplied defining polynomial is not primitive.

    ``witness_order`` is the smallest k > 0 with alpha^k in {0, 1}, i.e. the
    length of the cycle alpha falls into instead of sweeping all q-1 nonzero
    elements.
    """

    def __init__(self, poly: int, witness_order: int, message: str):
        super().__init__(message)
        self.poly = poly
        self.witness_order = witness_order


class Field:
    """GF(2^r) with exp/log tables over a primitive polynomial.

    Immutable after construction; safe to share across workers without
    synchronization.
    """

    def __init__(self, r: int, primitive_poly: int | None = None):
        if not 1 <= r <= 8:
            raise ValueError(f"extension degree r={r} out of supported range [1, 8]")
        if primitive_poly is None:
            primitive_poly = DEFAULT_PRIMITIVE_POLYS[r]
        if primitive_poly.bit_length() != r + 1:
            raise ValueError(
                f"polynomial {bin(primitive_poly)} does not have degree {r}"
            )
        self.r = r
        self.q = 1 << r
        self.primitive_poly = primitive_poly
        self.exp_table: list[int] = []
        self.log_table: list[int] = [-1] * self.q

        alpha = 2 if r > 1 else 1
        x = 1
        for e in range(self.q - 1):
            self.exp_table.append(x)
            self.log_table[x] = e
            x = self._mul_raw(x, alpha)
            if x == 1 and e + 1 < self.q - 1:
                raise NonPrimitivePolyError(
                    primitive_poly,
                    e + 1,
                    f"polynomial {bin(primitive_poly)} is not primitive: "
                    f"alpha has multiplicative order {e + 1} < {self.q - 1}",
                )
            if x == 0:
                raise NonPrimitivePolyError(
                    primitive_poly,
                    e + 1,
                    f"polynomial {bin(primitive_poly)} is not primitive: "
                    f"alpha^{e + 1} = 0 (x divides the polynomial)",
                )
        if x != 1:
            raise NonPrimitivePolyError(
                primitive_poly,
                self.q - 1,
                f"polynomial {bin(primitive_poly)} is not primitive: "
                f"alpha^{self.q - 1} != 1",
            )
        self._mul_table: np.ndarray | None = None

    def _mul_raw(self, a: int, b: int) -> int:
        """Carry-less multiply modulo the defining polynomial (no tables)."""
        p = 0
        while b:
            if b & 1:
                p ^= a
            a <<= 1
            if a & self.q:
                a ^= self.primitive_poly
            b >>= 1
        return p

    def add(self, a: int, b: int) -> int:
        """Addition is bitwise XOR of polynomial-basis values."""
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp_table[(self.log_table[a] + self.log_table[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return self.exp_table[(-self.log_table[a]) % (self.q - 1)]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow_alpha(self, e: int) -> int:
        """alpha^e for any signed integer exponent, reduced mod q-1."""
        return self.exp_table[e % (self.q - 1)]

    def log_alpha(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("log of zero is undefined")
        return self.log_table[a]

    def elements(self) -> range:
        return range(self.q)

    def nonzero_elements(self) -> range:
        return range(1, self.q)

    @property
    def mul_table(self) -> np.ndarray:
        """q x q multiplication table (lazy), for vectorized decoding."""
        if self._mul_table is None:
            t = np.zeros((self.q, self.q), dtype=np.int64)
            for a in range(1, self.q):
                for b in range(1, self.q):
                    t[a, b] = self.mul(a, b)
            t.setflags(write=False)
            self._mul_table = t
        return self._mul_table

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Field)
            and other.r == self.r
            and other.primitive_poly == self.primitive_poly
        )

    def __hash__(self) -> int:
        return hash((self.r, self.primitive_poly))

    def __repr__(self) -> str:
        return f"Field(r={self.r}, poly={bin(self.primitive_poly)})"


def min_lambda(q: int, Z: int) -> int:
    """Smallest lam >= 1 such that (q-1) divides lam*Z."""
    if Z < 1:
        raise ValueError("lifting order must be >= 1")
    return (q - 1) // math.gcd(q - 1, Z)
