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

from .games import DenseKernel, StageEnv, _followers, best_response_indices, stackelberg
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
                     meta={**self.meta, "expanded_from_certainty_form": True})


def _certainty_form_model(label: str, kernels, kernel_labels, meta=None) -> Model:
    params = [Parameter((None, None), k, i, label=kernel_labels[i])
              for i, k in enumerate(kernels)]
    return Model(label, params, strategic_certainty_form=True,
                 kernels=list(kernels), kernel_labels=list(kernel_labels),
                 meta=dict(meta or {}))


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
    consequence distribution at (a, worst-case best reply to a in G), one
    follower array per situation, so the opponent's reaction is baked into
    the perceived fundamentals and the kernel ignores the opponent argument.
    Rows are mixed with a uniform perturbation of weight ``perturb_eps``,
    recorded in the model's ``meta``, and an exhaustive audit checks the
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
    for k in env.kernels:
        follow = _followers(k.payoff_matrix(env.utility))
        rows = np.array([k.row(a, int(r)) for a, r in enumerate(follow)])
        rows = (1.0 - perturb_eps) * rows + perturb_eps * uniform
        kernels.append(DenseKernel(np.repeat(rows[:, None], n, axis=1)))  # opponent-independent

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
        meta={"builder": "illusion_of_control", "perturb_eps": float(perturb_eps)})


@dataclass(frozen=True)
class IdentifiabilityReport:
    situation_id: bool
    stackelberg_id: bool
    situation_witnesses: tuple = ()
    stackelberg_witnesses: tuple = ()


def check_identifiability(env: StageEnv) -> IdentifiabilityReport:
    """Two distinguishability conditions on the true kernels.

    Situation identifiability: kernels of distinct situations differ at every
    strategy profile.  Commitment identifiability: for each situation's best
    commitment strategy, the data it generates under rational replies differs
    across situations, for every selection of replies.  Kernel rows are
    stacked once as [g, i, j, y]; each pair of situations, or of reply sets,
    is one test, and witnesses keep (g1, g2, i, j) or (g1, g2, r1, r2) order.
    """
    S, A = env.situations, env.strategies
    rows = np.array([[k.rows_for_own(i) for i in range(env.n_strategies)] for k in env.kernels])
    sit_wit = [(S[g1], S[g2], A[i], A[j])
               for g1, g2 in itertools.combinations(range(len(S)), 2)
               for i, j in np.argwhere(np.abs(rows[g1] - rows[g2]).max(axis=-1) <= 1e-12)]

    stack_wit = []
    for g1, G1 in enumerate(S):
        lead = env.strategy_index(stackelberg(env, G1).strategy)
        replies = [best_response_indices(env, G, lead) for G in S]
        for g2, G2 in enumerate(S):
            if g2 == g1:
                continue
            data1, data2 = rows[g1, lead, replies[g1]], rows[g2, lead, replies[g2]]
            block = np.abs(data1[:, None] - data2[None]).max(axis=-1) <= 1e-12
            stack_wit += [(G1, G2, A[lead], A[replies[g1][r1]], A[replies[g2][r2]])
                          for r1, r2 in np.argwhere(block)]

    return IdentifiabilityReport(not sit_wit, not stack_wit,
                                 tuple(sit_wit), tuple(stack_wit))
