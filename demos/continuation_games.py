"""
Stopping ladders where coarse reasoning survives
================================================

In an alternating-move stopping game, one group pools the opponent's
nodes by parity and fits a single stopping rate to what it sees.  If the
pie grows fast enough, the pooled view sustains continuation to the end,
and a population mixing the two groups has an interior stable share.
In the winner-take-all variant the fine group dominates outright.
"""

from zeitgeist.catalog import CentipedeSpec, centipede_analysis, dollar_analysis
from zeitgeist.stability import affine_stable_shares

spec = CentipedeSpec(K=10, g=1.0, l=2.0)
report = centipede_analysis(spec)
print(f"ladder of {spec.K} nodes, growth {spec.g:g} per pass, "
      f"stopping loss {spec.l:g}")
print(f"growth condition g(K-2) > 2l holds: {report.condition_holds}")
print(f"pass-to-the-end profile verified:   "
      f"{report.maximal_continuation_verified} "
      f"(binding margin {report.binding_margin:.3f})")
print(f"fitted pooled stopping rate:        {report.analogy_minimizer_x:.4f} "
      f"(= 2/K)")
print(f"match payoffs [[AA, AB], [BA, BB]]:\n{report.match_payoffs}")
print(f"stable share of the pooled group:   {report.p_star_b:.4f}")

scan = affine_stable_shares(report.line_payoffs)
print(f"one-cell scan agrees: fitness gap falls through zero at fine-group "
      f"share {scan.thresholds[0]:.4f} = 1 - {report.p_star_b:.2f}")

print()
for K in (6, 8, 10, 12):
    gaps = affine_stable_shares(dollar_analysis(K).line_payoffs).gaps
    print(f"winner-take-all K={K:>2}: fine group ahead at every share "
          f"(min gap {gaps.min():.3f})")
print("\nwith the whole forgone pie handed to the opponent, pooling never")
print("reaches a stable interior mix; the fine group simply wins.")
