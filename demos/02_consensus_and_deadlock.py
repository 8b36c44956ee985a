"""Consensus and deadlock synchrony breaking, end to end.

Integrates the built-in 4x6 scenarios from random states near the undecided
equilibrium and shows the resulting decision patterns: consensus (one agent
cluster, options split into favored/disfavored) and deadlock (one option
cluster, agents split).  Heatmaps and time series land in demos_out/.
"""

from indecision import get_scenario, run_scenario, zero_sum_report

OUT = "demos_out"  # under the working directory

for name in ("consensus-4x6", "deadlock-4x6"):
    scenario = get_scenario(name).replace(seeds=(0, 1, 2))
    print(f"\n=== {name} (lambda = {scenario.lambda_value():.4f}) ===")
    for r in run_scenario(scenario, out_dir=OUT):
        max_row, max_col, amp = zero_sum_report(r.final)
        print(f"seed {r.seed}: {r.pattern.pattern_class.value:10s} "
              f"agents->{r.pattern.agent_clusters} options->{r.pattern.option_clusters}")
        print(f"         amplitude {amp:.3f}, max|row sum| {max_row:.3f}, "
              f"max|col sum| {max_col:.3f}")
        print(f"         levels: " + ", ".join(
            f"{cid}:{v:+.3f}" for cid, v in sorted(r.pattern.color_values.items())))

print(f"\nheatmaps and trajectories written to {OUT}/")
