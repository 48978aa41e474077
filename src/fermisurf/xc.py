"""Exchange-correlation functionals g(t) for the extended KS-LDA model.

Shipped functionals are power laws g(t) = c t^(1+beta). Validation follows
the admissibility conditions: g(0) = 0, g' >= 0, g' dominated by a sum of
two powers t^beta_minus + t^beta_plus, and (in strict mode) beta_plus <=
2/5 together with a nonvanishing small-t limit g(t)/t^alpha for some
alpha in [1, 3/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Dirac exchange coefficient (3/4)(3/pi)^(1/3).
LDA_EXCHANGE_COEF = 0.75 * (3.0 / math.pi) ** (1.0 / 3.0)

#: Lieb-Oxford lower-bound coefficient.
LIEB_OXFORD_COEF = 1.45

_SAMPLE_T = np.logspace(-12.0, 12.0, 97)


class XCValidationError(ValueError):
    """Functional rejected; the message names the violated clause."""


@dataclass(frozen=True)
class XCFunctional:
    """Power-law exchange-correlation density g(t) = coefficient * t^(1+beta)."""

    name: str
    coefficient: float
    beta: float
    strict_mode: bool = False

    def __post_init__(self):
        if self.coefficient < 0.0:
            raise XCValidationError("coefficient must be >= 0 (g' >= 0 fails)")
        if self.coefficient > 0.0 and self.beta <= 0.0:
            raise XCValidationError(
                "beta must be positive (g'(t)/(t^b- + t^b+) unbounded at 0)"
            )
        self._validate_conditions()

    def _validate_conditions(self):
        dg = self.derivative(_SAMPLE_T)
        if abs(self.evaluate(0.0)) > 0.0:
            raise XCValidationError("g(0) = 0 fails")
        if np.any(dg < 0.0):
            raise XCValidationError("monotonicity g' >= 0 fails on the sample grid")
        envelope = _SAMPLE_T**self.beta_minus + _SAMPLE_T**self.beta_plus
        if not np.all(np.isfinite(dg / envelope)):
            raise XCValidationError("g' not dominated by t^b- + t^b+")
        if self.strict_mode:
            if self.coefficient == 0.0:
                raise XCValidationError(
                    "strict mode: limsup g(t)/t^alpha > 0 fails (g vanishes)"
                )
            if self.beta_plus > 0.4 + 1e-12:
                raise XCValidationError(
                    f"strict mode: beta_plus = {self.beta_plus:g} > 2/5"
                )
            if not (1.0 <= self.alpha < 1.5):
                raise XCValidationError(
                    f"strict mode: alpha = {self.alpha:g} outside [1, 3/2)"
                )

    @property
    def beta_minus(self) -> float:
        return self.beta

    @property
    def beta_plus(self) -> float:
        return self.beta

    @property
    def alpha(self) -> float:
        """Small-t growth exponent: g(t)/t^alpha has a positive limit."""
        return 1.0 + self.beta

    def evaluate(self, t):
        t = np.asarray(t, dtype=float)
        out = self.coefficient * t ** (1.0 + self.beta)
        return out if out.ndim else float(out)

    def derivative(self, t):
        t = np.asarray(t, dtype=float)
        out = self.coefficient * (1.0 + self.beta) * t**self.beta
        return out if out.ndim else float(out)

    def derivative_envelope_sup(self) -> float:
        """sup over samples of g'(t) / (t^beta_minus + t^beta_plus)."""
        dg = self.derivative(_SAMPLE_T)
        env = _SAMPLE_T**self.beta_minus + _SAMPLE_T**self.beta_plus
        return float(np.max(dg / env))

    def normalized(self):
        """Rescaled copy with derivative-envelope sup <= 1, plus the factor."""
        sup = self.derivative_envelope_sup()
        if sup <= 1.0:
            return self, 1.0
        scaled = XCFunctional(
            name=self.name + "-normalized",
            coefficient=self.coefficient / sup,
            beta=self.beta,
            strict_mode=False,
        )
        return scaled, sup


def make_functional(kind: str, c: float = 1.0, beta: float = 1.0 / 3.0,
                    strict_mode: bool = False) -> XCFunctional:
    """Build one of the named functionals or a custom power law.

    kind: "lda_exchange" | "lieb_oxford" | "power" | "zero". The zero
    functional (reduced Hartree-Fock) validates only with strict mode off.
    """
    if kind == "lda_exchange":
        return XCFunctional("lda_exchange", LDA_EXCHANGE_COEF, 1.0 / 3.0, strict_mode)
    if kind == "lieb_oxford":
        return XCFunctional("lieb_oxford", LIEB_OXFORD_COEF, 1.0 / 3.0, strict_mode)
    if kind == "power":
        return XCFunctional(f"power(c={c:g},beta={beta:g})", c, beta, strict_mode)
    if kind == "zero":
        return XCFunctional("zero", 0.0, 1.0 / 3.0, strict_mode)
    raise XCValidationError(f"unknown functional kind {kind!r}")


def exchange_energy(rho, xc: XCFunctional) -> float:
    """Quadrature of g(rho) over the field's grid."""
    if np.any(rho.values < 0.0):
        raise ValueError("exchange energy needs a nonnegative density")
    return rho.grid.integrate(xc.evaluate(rho.values))
