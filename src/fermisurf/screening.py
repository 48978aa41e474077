"""Screened-potential comparison between the KS and TF densities.

Phi_r = V_R - (rho 1_{A_r^c}) * |x|^-1 is evaluated on the spheres
dB(R_j, r) through spherically averaged per-nucleus density profiles:
the charge inside each ball acts through Newton's theorem, so the sphere
values need only the cumulative charges q_j(r). Using one sampling
pipeline for both densities makes their difference meaningful even for
r below the grid spacing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fitting import PowerLawFit, powerlaw_fit
from .grids import ScalarField, fibonacci_sphere, trilinear_sample
from .tf_molecule import NuclearConfiguration

PROFILE_RADII = 240  # geometric radii of a nucleus profile, from PROFILE_S_MIN
PROFILE_S_MIN = 1e-3


@dataclass(frozen=True)
class NucleusProfile:
    """Spherically averaged density and cumulative charge around a nucleus."""

    s: np.ndarray  # radii
    rho_bar: np.ndarray
    q_cum: np.ndarray  # charge inside radius s

    def charge_within(self, r: float) -> float:
        return float(np.interp(r, self.s, self.q_cum))


def nucleus_profile(rho: ScalarField, center, s_max: float) -> NucleusProfile:
    """Average a 3D density over spheres around `center` (Fibonacci lattice)."""
    s = np.geomspace(PROFILE_S_MIN, s_max, PROFILE_RADII)
    rho_bar = np.empty(PROFILE_RADII)
    for k, sk in enumerate(s):
        pts = fibonacci_sphere(center, sk)
        rho_bar[k] = float(np.mean(trilinear_sample(rho, pts)))
    shell = 4.0 * np.pi * s**2 * rho_bar
    q = np.zeros(PROFILE_RADII)
    # trapezoid cumulative; the first shell is extended to s = 0
    q[0] = shell[0] * s[0] / 3.0
    q[1:] = q[0] + np.cumsum(0.5 * (shell[1:] + shell[:-1]) * np.diff(s))
    return NucleusProfile(s=s, rho_bar=rho_bar, q_cum=q)


@dataclass(frozen=True)
class ScreenedProfile:
    """Sphere sups of the screened potentials over a window of radii."""

    r_values: tuple
    sup_diff: tuple  # sup over all spheres of |Phi_r^TF - Phi_r|
    sup_phi: tuple  # sup of |Phi_r| (KS density)
    sup_phi_tf: tuple
    fit: PowerLawFit | None


def screened_compare(
    config: NuclearConfiguration,
    rho_ks: ScalarField,
    rho_tf: ScalarField,
    r_list,
) -> ScreenedProfile:
    """Sphere sups of Phi_r, Phi_r^TF and their difference over r_list.

    Both densities go through the identical spherical-average pipeline.
    r values must lie in (0, R_min/4] (the working window) for K >= 2.
    """
    rs = sorted(float(r) for r in r_list)
    if not rs or rs[0] <= 0.0:
        raise ValueError("need one or more screening radii, all positive")
    if config.K >= 2 and rs[-1] > config.R_min / 4.0 + 1e-12:
        raise ValueError("screening radii must be <= R_min/4")

    s_max = rs[-1] * 1.05
    profiles = [
        [nucleus_profile(rho, p, s_max) for p in config.positions]
        for rho in (rho_ks, rho_tf)
    ]

    sups = []  # (sup_diff, sup_phi, sup_phi_tf) per radius
    for r in rs:
        # net charge z_j - q_j(r) of each screened nucleus, per density
        net = [config.charges - np.array([p.charge_within(r) for p in prof])
               for prof in profiles]
        per_sphere = []
        for center in config.positions:
            pts = fibonacci_sphere(center, r)
            d = np.stack(
                [np.linalg.norm(pts - p, axis=1) for p in config.positions]
            )  # (K, sphere samples); the row of `center` is identically r
            d = np.maximum(d, 1e-12)
            phi_ks, phi_tf = ((q[:, None] / d).sum(axis=0) for q in net)
            per_sphere.append((np.max(np.abs(phi_tf - phi_ks)),
                               np.max(np.abs(phi_ks)), np.max(np.abs(phi_tf))))
        sups.append([float(max(col)) for col in zip(*per_sphere)])
    sup_diff, sup_phi, sup_phi_tf = zip(*sups)

    fit = None
    positive = [(r, dv) for r, dv in zip(rs, sup_diff) if dv > 0.0]
    if len(positive) >= 4:
        fit = powerlaw_fit(
            np.array([p[0] for p in positive]), np.array([p[1] for p in positive])
        )
    return ScreenedProfile(
        r_values=tuple(rs),
        sup_diff=sup_diff,
        sup_phi=sup_phi,
        sup_phi_tf=sup_phi_tf,
        fit=fit,
    )
