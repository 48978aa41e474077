"""Physical and asymptotic constants (Hartree atomic units throughout)."""

from __future__ import annotations

import math


#: Coefficient of the rho^(5/3) kinetic term, (3/10)(6 pi^2 / 2)^(2/3), for
#: two spin states per phase-space cell.
TF_C = 0.3 * (6.0 * math.pi**2 / 2) ** (2.0 / 3.0)

#: Sommerfeld far-field coefficient of the neutral TF potential:
#: phi(r) -> SOMMERFELD_C / r^4.
SOMMERFELD_C = 3.0**4 * 2.0**-3 * math.pi**2

#: Correction exponent of the Sommerfeld tail, the positive root of p^2 + 7p = 6.
XI = (math.sqrt(73.0) - 7.0) / 2.0

#: Length scale of the universal TF profile: r = TF_LENGTH_B * z^(-1/3) * x.
TF_LENGTH_B = 0.5 * (3.0 * math.pi / 4.0) ** (2.0 / 3.0)

