"""Dissensus synchrony breaking: orbital patterns, exotic patterns, and the
stable mixed states that coexist with them.

Two parameter sets on the 4x6 network.  The first typically produces a
pattern with two neutral option columns and one favored option per agent
(an axial pattern realized as a group orbit); some starts instead find a
stable non-axial mixed state.  The second produces two-color Latin
rectangles, some orbital and some exotic, depending only on the initial
condition.
"""

import os

from indecision import get_scenario, run_scenario

OUT = os.path.join(os.path.dirname(__file__), "demos_out")

for name in ("dissensus-orbital-4x6", "dissensus-exotic-4x6"):
    scenario = get_scenario(name).replace(seeds=(0, 1, 2, 3))
    print(f"\n=== {name} (lambda = {scenario.lambda_value():.4f}) ===")
    for r in run_scenario(scenario, out_dir=OUT):
        if r.axial_index is not None:
            extra = f"rho={r.axial_rho}" if r.axial_rho else f"split={r.axial_split}"
            print(f"seed {r.seed}: axial catalog entry #{r.axial_index} "
                  f"(case {r.axial_case}, {extra}) -> {r.axial_verdict}")
        elif r.pattern is None:
            print(f"seed {r.seed}: did not converge (residual {r.residual:.2e})")
        else:
            ncolors = len(r.pattern.color_values)
            print(f"seed {r.seed}: no axial match "
                  f"({r.pattern.pattern_class.value}, {ncolors} value levels "
                  f"- a stable mixed equilibrium)")

print(f"\nheatmaps and trajectories written to {OUT}/")
