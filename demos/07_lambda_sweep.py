"""Crossing the threshold: a small sweep of the bifurcation parameter.

Below the critical value every start near the undecided state decays back
to it; above, trajectories jump to a patterned equilibrium with order-one
amplitude.  The observed transition brackets the analytic threshold.
"""

import os

from indecision import bifurcation_threshold, get_scenario, sweep_lambda

OUT = "demos_out"  # under the working directory
os.makedirs(OUT, exist_ok=True)

scenario = get_scenario("consensus-4x6").replace(seeds=(0, 1, 2))
t = bifurcation_threshold(scenario.coefficients, "consensus")
print(f"analytic threshold: lambda* = {t.lam}")

lambdas = [0.7, 0.9, 0.97, 1.03, 1.1, 1.3]
rows = sweep_lambda(scenario, lambdas,
                    out_csv=os.path.join(OUT, "consensus_sweep.csv"))
print(f"{'lambda':>8} {'to zero':>8} {'consensus':>10} {'mean amp':>10}")
for row in rows:
    print(f"{row['lambda']:8.3f} {row['frac_zero']:8.2f} "
          f"{row['frac_Consensus']:10.2f} {row['mean_amplitude']:10.4g}")

below = max(row["lambda"] for row in rows if row["frac_zero"] == 1.0)
above = min(row["lambda"] for row in rows if row["frac_zero"] == 0.0)
print(f"\ntransition observed between {below} and {above}; "
      f"threshold {t.lam} lies inside")
