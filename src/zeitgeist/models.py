"""Parameterized models of the stage game held by population groups.

A model is a finite set of parameters; each parameter combines a conjecture
about what each opponent group plays with a consequence kernel.  Under
perfect monitoring, models whose parameter set is the full product of
conjecture pairs with a kernel set ("strategic certainty form") reduce to
beliefs over kernels alone, because signals pin conjectures to actual play.
Such models are stored compactly here: one parameter per kernel with free
(``None``) conjectures.  ``Model.expand_product`` materializes the explicit
product when a consumer, like the learning simulator, needs conjectures to
carry likelihood weight.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .games import (DenseKernel, StageEnv, best_response_indices,
                    min_tiebreak_best_response, stackelberg)
from .inference import kl_divergence

AUDIT_MARGIN = 1e-6


class ModelConstructionError(ValueError):
    """A model constructor could not satisfy its own well-formedness audit."""


@dataclass(frozen=True)
class Parameter:
    """One model parameter: conjectured play of (group A, group B) plus a kernel.

    A ``None`` conjecture entry means the parameter tracks the opponent
    group's actual play (strategic-certainty shorthand).
    """

    conj_a: tuple[int | None, int | None]
    kernel: object
    kernel_index: int
    label: str = ""


@dataclass
class Model:
    label: str
    params: list[Parameter]
    strategic_certainty_form: bool
    kernels: list[object]
    kernel_labels: list[str]
    perturb_eps: float | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.params:
            raise ValueError("a model needs at least one parameter")

    @property
    def n_params(self) -> int:
        return len(self.params)

    def kernel_marginal(self, weights: np.ndarray) -> np.ndarray:
        """Collapse a distribution over parameters onto the kernel axis."""
        out = np.zeros(len(self.kernels))
        for p, w in zip(self.params, weights):
            out[p.kernel_index] += w
        return out

    def expand_product(self, env: StageEnv) -> "Model":
        """Explicit product form: every conjecture pair with every kernel.

        Returns self when conjectures are already explicit.
        """
        if not self.strategic_certainty_form:
            return self
        n = env.n_strategies
        params = []
        for ca, cb in itertools.product(range(n), range(n)):
            for k, kernel in enumerate(self.kernels):
                params.append(Parameter(
                    (ca, cb), kernel, k,
                    label=f"{self.kernel_labels[k]}|A:{env.strategies[ca]},B:{env.strategies[cb]}"))
        return Model(self.label, params, strategic_certainty_form=False,
                     kernels=list(self.kernels), kernel_labels=list(self.kernel_labels),
                     perturb_eps=self.perturb_eps,
                     meta={**self.meta, "expanded_from_certainty_form": True})


def _certainty_form_model(label: str, kernels, kernel_labels, perturb_eps=None, meta=None) -> Model:
    params = [Parameter((None, None), k, i, label=kernel_labels[i])
              for i, k in enumerate(kernels)]
    return Model(label, params, strategic_certainty_form=True,
                 kernels=list(kernels), kernel_labels=list(kernel_labels),
                 perturb_eps=perturb_eps, meta=dict(meta or {}))


def minimal_correct_model(env: StageEnv) -> Model:
    """Correctly specified model: the true kernel of every situation (deduplicated)."""
    kernels: list[object] = []
    labels: list[str] = []
    for k, G in zip(env.kernels, env.situations):
        dup = next((s for s, seen in enumerate(kernels)
                    if all(np.array_equal(seen.rows_for_own(i), k.rows_for_own(i))
                           for i in range(env.n_strategies))), None)
        if dup is None:
            kernels.append(k)
            labels.append(G)
        else:
            labels[dup] = f"{labels[dup]}|{G}"
    return _certainty_form_model("minimal_correct", kernels, labels,
                                 meta={"builder": "minimal_correct"})


def singleton_model(env: StageEnv, kernel, label: str = "singleton") -> Model:
    """Dogmatic model with a single kernel (no fundamental uncertainty)."""
    if not hasattr(kernel, "row"):
        kernel = DenseKernel(kernel)
    if kernel.n_strategies != env.n_strategies:
        raise ValueError("kernel strategy dimension mismatch")
    return _certainty_form_model(label, [kernel], [label], meta={"builder": "singleton"})


def illusion_of_control_model(env: StageEnv, perturb_eps: float = 1e-3) -> Model:
    """Model attributing the opponent's equilibrium response to the situation.

    For each situation ``G`` the kernel sends own strategy ``a`` to the true
    consequence distribution at (a, worst-case best reply to a in G), so the
    opponent's reaction is baked into the perceived fundamentals and the
    kernel ignores the opponent argument.  Rows are mixed with a uniform
    perturbation of weight ``perturb_eps`` and an exhaustive audit checks the
    per-profile minimizer over situations is unique; ties raise.
    """
    if not np.isfinite(perturb_eps) or perturb_eps <= 0.0:
        raise ValueError("perturb_eps must be positive")
    n, ny = env.n_strategies, len(env.consequences)
    min_mass = min(float(rows[rows > 0].min())
                   for k in env.kernels for rows in map(k.rows_for_own, range(n)))
    if perturb_eps >= min_mass:
        raise ValueError(
            f"perturb_eps {perturb_eps} must stay below the smallest positive kernel mass {min_mass}")

    uniform = np.full(ny, 1.0 / ny)
    kernels = []
    for G in env.situations:
        table = np.empty((n, n, ny))
        for a in range(n):
            reply = env.strategy_index(min_tiebreak_best_response(env, G, a))
            row = (1.0 - perturb_eps) * env.kernel(G).row(a, reply) + perturb_eps * uniform
            table[a, :, :] = row  # opponent-independent by construction
        kernels.append(DenseKernel(table))

    # audit: every data profile must single out one situation kernel
    for gi, G in enumerate(env.situations):
        for i in range(n):
            for j in range(n):
                true_row = env.kernel(G).row(i, j)
                scores = np.array([kl_divergence(true_row, k.row(i, 0)) for k in kernels])
                order = np.sort(scores)
                if len(order) > 1 and order[1] - order[0] <= AUDIT_MARGIN:
                    raise ModelConstructionError(
                        "perturbation left a divergence tie at profile "
                        f"({env.strategies[i]}, {env.strategies[j]}) in situation {G}; "
                        "choose a different perturb_eps")

    return _certainty_form_model(
        "illusion_of_control", kernels, [f"as_if[{G}]" for G in env.situations],
        perturb_eps=perturb_eps, meta={"builder": "illusion_of_control"})


@dataclass(frozen=True)
class IdentifiabilityReport:
    situation_id: bool
    stackelberg_id: bool
    situation_witnesses: tuple = ()
    stackelberg_witnesses: tuple = ()

    def __iter__(self):  # convenient (situation, stackelberg) unpacking
        return iter((self.situation_id, self.stackelberg_id))


def check_identifiability(env: StageEnv) -> IdentifiabilityReport:
    """Two distinguishability conditions on the true kernels.

    Situation identifiability: kernels of distinct situations differ at every
    strategy profile.  Commitment identifiability: for each situation's best
    commitment strategy, the data it generates under rational replies differs
    across situations, for every selection of replies.
    """
    n = env.n_strategies
    sit_wit = []
    for g1 in range(env.n_situations):
        for g2 in range(g1 + 1, env.n_situations):
            for i in range(n):
                for j in range(n):
                    gap = np.max(np.abs(env.kernels[g1].row(i, j) - env.kernels[g2].row(i, j)))
                    if gap <= 1e-12:
                        sit_wit.append((env.situations[g1], env.situations[g2],
                                        env.strategies[i], env.strategies[j]))

    stack_wit = []
    leads = [stackelberg(env, G) for G in env.situations]
    for g1, G1 in enumerate(env.situations):
        lead = env.strategy_index(leads[g1].strategy)
        replies1 = best_response_indices(env, G1, lead)
        for g2, G2 in enumerate(env.situations):
            if g2 == g1:
                continue
            replies2 = best_response_indices(env, G2, lead)
            for r1 in replies1:
                for r2 in replies2:
                    gap = np.max(np.abs(env.kernels[g1].row(lead, r1)
                                        - env.kernels[g2].row(lead, r2)))
                    if gap <= 1e-12:
                        stack_wit.append((G1, G2, env.strategies[lead],
                                          env.strategies[int(r1)], env.strategies[int(r2)]))

    return IdentifiabilityReport(not sit_wit, not stack_wit,
                                 tuple(sit_wit), tuple(stack_wit))

