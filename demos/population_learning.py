"""
Do Bayesian learners find the enumerated states?
================================================

A population of agents plays the capacity-investment game repeatedly,
updating beliefs over each group's parameter grid from own consequences
and noisy monitoring signals.  With entrants forming almost the whole
population, play and beliefs settle on the state the enumerator
predicts for the extreme share.
"""

import numpy as np

from zeitgeist.catalog import InvestmentSpec, build_investment_game
from zeitgeist.learning import SimConfig, compare_to_outcomes, run_learning
from zeitgeist.solver import enumerate_situation_ez

spec = InvestmentSpec(b=1.0, c=5.5, m=12.0)
env, model_a, model_b, _ = build_investment_game(spec)
cfg = SimConfig(n_agents=200, shares=(0.01, 0.99), horizon=1500,
                seed=20240901, tau=0.99)
print(f"{cfg.n_agents} agents at shares {cfg.shares}, "
      f"{cfg.horizon} periods, seed {cfg.seed}")

traj = run_learning(env, model_a, model_b, cfg)
for t in (0, 150, 500, 1499):
    quad = tuple(env.strategies[i] for i in traj.play_quadruple(t))
    bel = traj.model_b.kernel_marginal(traj.nu_b[t])
    top = traj.model_b.kernel_labels[int(np.argmax(bel))]
    print(f"period {t:>4}: modal play {quad}, entrant belief peak "
          f"{top} ({bel.max():.3f})")

# one situation, so its outcomes are the states
outcomes = enumerate_situation_ez(env, model_a, model_b, env.situations[0], cfg.shares)
rep = compare_to_outcomes(traj, [outcomes], window=300)
print(f"\nenumerated states at these shares: "
      f"{[o.quadruple for o in outcomes]}")
print(f"converged to state {rep.best_index}: {rep.converged}")
print(f"modal play {rep.modal_play}, belief distance {rep.belief_tv:.3g}, "
      f"window payoffs A={rep.mean_payoff[0]:.3f} B={rep.mean_payoff[1]:.3f}")
print("\nthe entrant majority invests high and believes the slope that its")
print("own prices confirm; the rare residents keep investing low.")
