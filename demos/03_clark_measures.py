"""The family of boundary measures attached to b.

For each unimodular alpha, the positive-real-part function
(1 + conj(alpha) b)/(1 - conj(alpha) b) is the Herglotz integral of a
measure mu_alpha: a density (1-|b|^2)/|alpha-b|^2 plus point masses at
the circle points where b = alpha.  Atom masses are 1/|b'(zeta)| and the
density integrates in closed form; the total is cross-checked against the
transform's value at 0.
Boundary values of transforms recover integrands at the atoms.
"""

import numpy as np

from hblab import (UnitCircleFunction as UCF, clark_measure, make_space,
                   poltoratski_limit)

space = make_space(UCF.polynomial([0.0, 0.5, 0.5]))   # b = z(1+z)/2

# -- the measure at alpha = 1 ------------------------------------------------
cm = clark_measure(space, 1.0)
print("alpha = 1")
print("  atoms:", [(np.round(z, 10), round(m, 10)) for z, m in cm.atoms])
print("  rounding bounds of the masses:", cm.atom_errors)
print("  absolutely continuous mass:", cm.ac_mass)
print("  total:", cm.total_mass, " (transform value", cm.herglotz_mass, ")")
# densities: |phi_alpha|^2 with phi_alpha = a/(1 - conj(alpha) b)
print("  density root:", np.round(cm.density_root.num, 6), "/",
      np.round(cm.density_root.den, 6))

# -- sweeping alpha ------------------------------------------------------
# most alphas give purely absolutely continuous measures; atoms appear
# exactly when the level set {b = alpha} touches the circle.
print("\nsweep:")
for k in range(8):
    alpha = np.exp(2j * np.pi * k / 8)
    cmk = clark_measure(space, alpha)
    tag = f"{len(cmk.atoms)} atom(s)" if cmk.atoms else "a.c."
    print(f"  alpha angle {2 * np.pi * k / 8:.3f}: total "
          f"{cmk.total_mass:.8f}, {tag}")

# -- boundary values at an atom ------------------------------------------
# The normalized transform of any polynomial takes the integrand's value
# at each atom: the rational transform is finite there, as the atom
# kernels cancel.
for h in ([1.0], [0.0, 1.0], [1.0, 0.0, 2.0]):
    val = poltoratski_limit(space, 1.0, h, 1.0)
    want = sum(h)
    print(f"\nV(h) at the atom for h coeffs {h}: {val:.6f} "
          f"(target {want})")

# -- CSV emission --------------------------------------------------------
rows = cm.csv_rows(density_samples=8)
print("\nCSV rows (alpha_angle, type, theta, value):")
for row in rows[:4] + rows[-1:]:
    print("  " + ", ".join(f"{v:.6g}" if isinstance(v, float) else str(v)
                           for v in row))
