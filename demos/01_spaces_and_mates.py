"""Constructing spaces and computing norms through the mate.

A nonconstant b in the unit ball of H^infty with log(1-|b|) integrable
generates a shift-invariant space of analytic functions on the disk.
The computational key is the outer function a with |a|^2 + |b|^2 = 1 on
the circle: a polynomial f belongs to the space together with a unique
mate f1 solving a banded Toeplitz relation, and

    ||f||_b^2 = ||f||_2^2 + ||f1||_2^2.

This script builds a few spaces, shows their mates, and checks the norm
arithmetic, in floating point and in certified exact rational form.
"""

import numpy as np

from hblab import UnitCircleFunction as UCF, exact, make_element, make_space

# ---------------------------------------------------------------------------
# The classic example b = (1+z)/2: the mate is a = (1-z)/2.

space = make_space(UCF.polynomial([0.5, 0.5]))
print("b = (1+z)/2")
print("  a =", np.round(space.a.to_polynomial(), 12))
print("  l1 residual of |A|^2 - (|q|^2-|p|^2):", space.pythagorean_residual())
print("  exact backend:", space.exact is not None,
      " exact residual:", space.pythagorean_exact_residual())

# The mate of the constant 1 is -1, so ||1||^2 = 1 + 1 = 2, and the
# monomial norms follow the arithmetic progression 4k+2.
one = make_element(space, [1.0])
print("  mate(1) =", np.round(one.mate, 12), " ||1||^2 =", one.norm2)
for k in range(5):
    el = make_element(space, [0.0] * k + [1.0])
    print(f"  ||z^{k}||^2 = {el.norm2:.1f} (exact {el.norm2_exact})")

# ---------------------------------------------------------------------------
# b = z/2: the mate is the constant sqrt(3)/2, which the exact backend
# stores in scaled form (rational polynomial times a quadratic surd).

space2 = make_space(UCF.polynomial([0.0, 0.5]))
print("\nb = z/2")
print("  a =", space2.a.to_polynomial())
print("  exact scaled form: A =",
      [str(c.re) for c in exact.to_qc(space2.exact.A)],
      " s^2 =", space2.exact.s2)
ez = make_element(space2, [0.0, 1.0])
print("  mate(z) =", np.round(ez.mate, 12),
      " ||z||^2 =", ez.norm2, "(exact", str(ez.norm2_exact) + ")")

# ---------------------------------------------------------------------------
# Rational b work the same way; the relation is cleared by the common
# denominator first.  Here b = -z/(2-z), the space generated by the
# unit-norm outer function (1-z)/sqrt(2).

b = UCF.rational([0.0, -1.0], [2.0, -1.0])
space3 = make_space(b)
print("\nb = -z/(2-z)")
print("  a =", np.round(space3.a.num, 6), "/", np.round(space3.a.den, 6))
print("  residual:", space3.pythagorean_residual())
el = make_element(space3, [1.0, 1.0])
print("  ||1+z||^2 =", el.norm2)
