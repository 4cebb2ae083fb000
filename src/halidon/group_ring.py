"""Arithmetic in the group ring Z_n[C_m] through its lambda spectrum.

An element u = a_1 + a_2 g + ... + a_m g^(m-1) (coefficients 1-indexed,
g the distinguished generator) is determined by its spectrum
lambda_r = u(omega^-(r-1)) for r = 1..m.  The spectrum map is a ring
isomorphism onto Z_n^m with pointwise operations, which makes unit and
idempotent tests, inversion, and multiplication all one-liners in the
spectral domain.
"""

from __future__ import annotations

import math
from typing import Sequence, Union

from .analysis import HalidonRing
from .arith import Residue, _Value, mod_inverse
from .dft import _transform, cyclic_convolve
from .errors import LengthMismatch, ModulusMismatch, NotAUnit


class GroupRingElement(_Value):
    """Coefficient vector of an element of Z_n[C_m]; coeffs[i] rides g^i."""

    coeffs: tuple[int, ...]
    ring: HalidonRing

    def __post_init__(self):
        if len(self.coeffs) != self.ring.m:
            raise LengthMismatch(
                f"{len(self.coeffs)} coefficients in a group ring of order {self.ring.m}"
            )
        object.__setattr__(
            self, "coeffs", tuple(c % self.ring.n for c in self.coeffs)
        )

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


LambdaLike = Union[LambdaVector, Sequence[int]]


def _lambda_values(lam: LambdaLike, ring: HalidonRing) -> tuple[int, ...]:
    if isinstance(lam, LambdaVector):
        if lam.modulus != ring.n:
            raise ModulusMismatch(
                f"spectrum mod {lam.modulus} used in ring mod {ring.n}"
            )
        values = lam.values
    else:
        values = tuple(int(v) % ring.n for v in lam)
    if len(values) != ring.m:
        raise LengthMismatch(
            f"spectrum of length {len(values)} in a ring of index {ring.m}"
        )
    return values


def lambda_of(u: GroupRingElement) -> LambdaVector:
    """Spectrum of u: lambda_r = sum_i a_i * omega^(-(i-1)(r-1)) mod n."""
    (values,) = _transform(u.ring, [u.coeffs], inverse=True, scaled=False)
    return LambdaVector(values, u.ring.n)


def coeffs_of_lambda(lam: LambdaLike, ring: HalidonRing) -> GroupRingElement:
    """Element with the given spectrum: a_r = m^(-1) * sum_j lambda_j * omega^((j-1)(r-1))."""
    (coeffs,) = _transform(
        ring, [_lambda_values(lam, ring)], inverse=False, scaled=True
    )
    return GroupRingElement(coeffs, ring)


def multiply(u: GroupRingElement, v: GroupRingElement) -> GroupRingElement:
    """Product in the group ring: cyclic convolution of coefficients."""
    if u.ring.n != v.ring.n:
        raise ModulusMismatch(
            f"moduli differ: {u.ring.n} vs {v.ring.n}"
        )
    if u.ring.m != v.ring.m:
        raise LengthMismatch(
            f"group orders differ: {u.ring.m} vs {v.ring.m}"
        )
    return GroupRingElement(
        cyclic_convolve(u.coeffs, v.coeffs, u.ring.n), u.ring
    )


def is_unit(u: GroupRingElement) -> bool:
    """u is invertible iff every spectrum value is a unit mod n."""
    n = u.ring.n
    return all(math.gcd(v, n) == 1 for v in lambda_of(u).values)


def invert_unit(u: GroupRingElement) -> GroupRingElement:
    """Multiplicative inverse: invert the spectrum, then resynthesize.

    Raises NotAUnit naming the first spectrum position (1-indexed) that
    shares a factor with n.
    """
    n = u.ring.n
    inverted = []
    for r, value in enumerate(lambda_of(u).values, start=1):
        g = math.gcd(value, n)
        if g != 1:
            raise NotAUnit(
                f"lambda[{r}] = {value} is not a unit mod {n} (gcd = {g})"
            )
        inverted.append(mod_inverse(Residue(value, n)).value)
    return coeffs_of_lambda(inverted, u.ring)


def is_idempotent(u: GroupRingElement) -> bool:
    """u^2 = u iff every spectrum value is idempotent mod n."""
    n = u.ring.n
    return all(v * v % n == v for v in lambda_of(u).values)
