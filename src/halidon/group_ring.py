"""Arithmetic in the group ring Z_n[C_m] through its lambda spectrum.

An element u = a_1 + a_2 g + ... + a_m g^(m-1) (coefficients 1-indexed,
g the distinguished generator) is determined by its spectrum
lambda_r = u(omega^-(r-1)) for r = 1..m.  The spectrum map is a ring
isomorphism onto Z_n^m with pointwise operations, which makes the unit
test, inversion, and multiplication all one-liners in the spectral
domain.
"""

from __future__ import annotations

import math

from .analysis import HalidonRing
from .arith import _Value
from .dft import VectorLike, as_entries, cyclic_convolve, transform_vector
from .errors import NotAUnit


class GroupRingElement(_Value):
    """Coefficient vector of an element of Z_n[C_m]; coeffs[i] rides g^i."""

    coeffs: tuple[int, ...]
    ring: HalidonRing

    def __post_init__(self):
        object.__setattr__(self, "coeffs", as_entries(self.ring, self.coeffs))

    def __iter__(self):
        return iter(self.coeffs)

    @classmethod
    def identity(cls, ring: HalidonRing) -> "GroupRingElement":
        return cls((1,) + (0,) * (ring.m - 1), ring)


class LambdaVector(_Value):
    """Spectrum values lambda_1..lambda_m over Z_n."""

    values: tuple[int, ...]
    modulus: int

    def __post_init__(self):
        object.__setattr__(
            self, "values", tuple(v % self.modulus for v in self.values)
        )

    def __iter__(self):
        return iter(self.values)

    def __len__(self):
        return len(self.values)


def lambda_of(u: GroupRingElement) -> LambdaVector:
    """Spectrum of u: lambda_r = sum_i a_i * omega^(-(i-1)(r-1)) mod n."""
    return LambdaVector(transform_vector(u.ring, u, True, False), u.ring.n)


def coeffs_of_lambda(lam: VectorLike, ring: HalidonRing) -> GroupRingElement:
    """Element with the given spectrum: a_r = m^(-1) * sum_j lambda_j * omega^((j-1)(r-1))."""
    return GroupRingElement(transform_vector(ring, lam, False, True), ring)


def multiply(u: GroupRingElement, v: VectorLike) -> GroupRingElement:
    """Product in the group ring: cyclic convolution of coefficients."""
    return GroupRingElement(
        cyclic_convolve(u.coeffs, as_entries(u.ring, v), u.ring.n), u.ring
    )


def first_non_unit(lam: LambdaVector) -> tuple[int, int, int] | None:
    """(r, lambda_r, gcd(lambda_r, n)) for the first spectrum value, r
    1-indexed, that shares a factor with n; None if every value is a unit."""
    n = lam.modulus
    for r, value in enumerate(lam.values, start=1):
        g = math.gcd(value, n)
        if g != 1:
            return r, value, g
    return None


def is_unit(u: GroupRingElement) -> bool:
    """u is invertible iff every spectrum value is a unit mod n."""
    return first_non_unit(lambda_of(u)) is None


def invert_unit(u: GroupRingElement) -> GroupRingElement:
    """Multiplicative inverse: invert the spectrum, then resynthesize.

    Raises NotAUnit naming the first spectrum position (1-indexed) that
    shares a factor with n.
    """
    lam = lambda_of(u)
    n = lam.modulus
    bad = first_non_unit(lam)
    if bad is not None:
        r, value, g = bad
        raise NotAUnit(
            f"lambda[{r}] = {value} is not a unit mod {n} (gcd = {g})"
        )
    return coeffs_of_lambda([pow(v, -1, n) for v in lam.values], u.ring)
