"""
A stability reversal in a capacity-investment game
==================================================

Two firms invest one or two units; price is linear in total capacity.
Entrants attribute a fixed price discount to scale, so the slope they
infer depends on the play they generate.  Conditional on every opponent
type, residents beat entrants when residents dominate the population.
Yet when entrants dominate, their own data teaches them a slope that
makes aggressive investment look good, and it actually is good there.
"""

import numpy as np

from zeitgeist.catalog import InvestmentSpec, build_investment_game
from zeitgeist.solver import match_payoffs, share_blend
from zeitgeist.stability import detect_reversal

spec = InvestmentSpec(b=1.0, c=5.5, m=12.0)
env, model_a, model_b, report = build_investment_game(spec)
print(f"price mean b*(a_i+a_j) with b={spec.b:g}; high investment costs "
      f"c={spec.c:g}; perceived discount m={spec.m:g}")
print(f"data-matching slopes: total 2 -> {report.b_star_11:g}, "
      f"total 3 -> {report.b_star_12:g}, total 4 -> {report.b_star_22:g}")

res = detect_reversal(env, model_a, model_b)
print(f"\nstability reversal: {res.reversal}")

# one situation, so each outcome of it is a whole population state
print("\n-- residents (A) fill the population --")
for o in res.outcomes_resident_a[0]:
    quad = tuple(env.strategies[i] for i in o.quadruple)
    m = match_payoffs(env, 0, o.quadruple)
    print(f"state {quad}:")
    for h, versus in enumerate("AB"):
        fa, fb = m[0, h], m[1, h]
        print(f"  against group {versus}: A earns {fa:.2f}, B earns {fb:.2f}"
              f"  -> A ahead by {fa - fb:+.2f}")
    idx = int(np.argmax(o.belief_b))
    print(f"  entrant belief: {model_b.params[idx].label}")

print("\n-- entrants (B) fill the population --")
for o in res.outcomes_resident_b[0]:
    quad = tuple(env.strategies[i] for i in o.quadruple)
    f = share_blend(match_payoffs(env, 0, o.quadruple), (0.0, 1.0))
    idx = int(np.argmax(o.belief_b))
    print(f"state {quad}: fitness A {f[0]:.2f} vs B {f[1]:.2f}; "
          f"entrant belief {model_b.params[idx].label}")

print("\nconditional dominance at one extreme, average defeat at the other.")
