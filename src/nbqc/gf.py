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

This module sits below every other one, so it also holds the one rule for
an integer that a caller or a file supplies (:func:`checked_int`) and the
bounds on the lifting order and the edge count that every layer shares
(:data:`MAX_Z`, :data:`MAX_EDGES`).
"""

from __future__ import annotations

import math
from numbers import Integral

import numpy as np

# the shift optimizer tries all Z shifts per edge and expansion writes Z
# entries per base edge; every code and shift search stays below
MAX_Z = 1 << 16
MAX_EDGES = 1 << 18  # the most edges a base matrix makes: four full cells

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


def checked_int(value, name: str, lo: int, hi: int | None = None):
    """``value`` unchanged if it is an integer in [lo, hi] (no upper bound
    when ``hi`` is None), else a ValueError naming it.

    A bool is not an integer here, nor is an integral float: JSON ``true``
    loads as a bool and ``1.0`` as a float, and neither is ever written.
    An exact ``int``, the common case, skips the slower ABC test.
    """
    if ((type(value) is not int
         and (isinstance(value, bool) or not isinstance(value, Integral)))
            or value < lo or (hi is not None and value > hi)):
        bound = "inf)" if hi is None else f"{hi}]"
        raise ValueError(f"{name} {value!r} is not an integer in [{lo}, {bound}")
    return value


def checked_depth(value, name: str):
    """``value`` unchanged if it is an even integer >= 2, a walk length or
    spectrum depth, else a ValueError naming it."""
    if checked_int(value, name, 2) % 2:
        raise ValueError(f"{name} {value!r} is not even")
    return value


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
        checked_int(r, "extension degree r", 1, 8)
        if primitive_poly is None:
            primitive_poly = DEFAULT_PRIMITIVE_POLYS[r]
        # degree r: bit r is the top one
        checked_int(primitive_poly, "polynomial", 1 << r, (1 << (r + 1)) - 1)
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
        # q x q multiplication table for vectorized encoding and decoding
        exp = np.array(self.exp_table, dtype=np.int64)
        log = np.array(self.log_table, dtype=np.int64)
        self.mul_table = np.zeros((self.q, self.q), dtype=np.int64)
        self.mul_table[1:, 1:] = exp[(log[1:, None] + log[None, 1:]) % (self.q - 1)]
        self.mul_table.setflags(write=False)

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

    def pow_alpha(self, e: int) -> int:
        """alpha^e for any signed integer exponent, reduced mod q-1."""
        return self.exp_table[e % (self.q - 1)]

    def log_alpha(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("log of zero is undefined")
        return self.log_table[a]

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
    checked_int(Z, "lifting order Z", 1)
    return (q - 1) // math.gcd(q - 1, Z)
