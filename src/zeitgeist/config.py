"""YAML configs for environments, models, and simulation runs.

One schema serves every command.  A document declares its ``kind`` (env,
model, or sim) and either spells the object out by value or names a
catalog ``builder`` with its arguments, in which case loading re-invokes
the builder and picks the component named by ``role``.  Builder-backed
documents are the only way to persist environments whose kernels are
computed rather than tabulated, and they round-trip bit-exactly because
the loader reruns the same construction.

Floats are written with their shortest round-trip representation, so a
save/load cycle reproduces every table cell bit for bit.
"""

from __future__ import annotations

import numpy as np
import yaml

from . import catalog
from .games import DenseKernel, MonitoringStructure, StageEnv
from .learning import Policy, SimConfig
from .models import Model, Parameter, _certainty_form_model


class ConfigError(ValueError):
    """Malformed configuration; the message carries file/line context."""


def _builder_registry():
    def two_situation(args):
        return {"env": catalog.build_two_situation_game()}

    def investment(args):
        spec = catalog.InvestmentSpec(args["b"], args["c"], args["m"])
        env, ma, mb, _ = catalog.build_investment_game(
            spec, noise_sd=args.get("noise_sd", 2.0))
        return {"env": env, "model_a": ma, "model_b": mb}

    def cournot_discrete(args):
        spec = catalog.CournotSpec(args["beta"], args["c"], args["r"],
                                   args["r_hat"])
        env, ma, mb = catalog.build_cournot_discrete(
            spec, np.asarray(args["quantity_grid"], dtype=float),
            price_bins=args["price_bins"], noise_sd=args["noise_sd"])
        return {"env": env, "model_a": ma, "model_b": mb}

    return {"two_situation": two_situation, "investment": investment,
            "cournot_discrete": cournot_discrete}


BUILDERS = _builder_registry()


def _run_builder(doc: dict, where: str):
    name = doc["builder"]
    if name not in BUILDERS:
        raise ConfigError(f"{where}: unknown builder {name!r}; "
                          f"expected one of {sorted(BUILDERS)}")
    role = doc.get("role", "env")
    parts = BUILDERS[name](doc.get("args") or {})
    if role not in parts:
        raise ConfigError(f"{where}: builder {name!r} has no component "
                          f"{role!r}; it provides {sorted(parts)}")
    return parts[role]


def read_document(path) -> dict:
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        at = f"{path}:{mark.line + 1}" if mark is not None else str(path)
        raise ConfigError(f"{at}: {getattr(exc, 'problem', exc)}") from exc
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected a mapping at the top level")
    return doc


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise ConfigError(f"{where}: missing required key {key!r}")
    return doc[key]


def _integer(value, key: str, where: str) -> int | None:
    """``value`` as an int, None passing through.  Integral floats are
    accepted; bools, fractions, NaN, inf and strings are rejected."""
    if isinstance(value, bool) or not (value is None or isinstance(value, (int, np.integer))
                                       or isinstance(value, float) and value.is_integer()):
        raise ConfigError(f"{where}: {key} must be an integer, got {value!r}")
    return None if value is None else int(value)


def _float_list(x):
    return np.asarray(x, dtype=float).tolist()


# ---------------------------------------------------------------------------
# environments


def env_to_dict(env: StageEnv) -> dict:
    meta = dict(env.meta)
    if "builder" in meta:
        return {"kind": "env", "builder": meta["builder"],
                "role": "env", "args": meta.get("args", {})}
    for k in env.kernels:
        if not isinstance(k, DenseKernel):
            raise ConfigError(
                "environment has computed kernels and no builder stamp; "
                "only builder-backed or dense-kernel envs are serializable")
    doc = {
        "kind": "env",
        "strategies": list(env.strategies),
        "consequences": list(env.consequences),
        "situations": list(env.situations),
        "kernels": [k.table.tolist() for k in env.kernels],
        "utility": env.utility.tolist(),
    }
    if env.monitoring.is_perfect():
        doc["monitoring"] = "perfect"
    else:
        doc["monitoring"] = {"signals": list(env.monitoring.signals),
                             "rows": env.monitoring.rows.tolist()}
    if meta:
        doc["meta"] = meta
    return doc


def env_from_dict(doc: dict, where: str = "<env>") -> StageEnv:
    if doc.get("kind", "env") != "env":
        raise ConfigError(f"{where}: kind is {doc.get('kind')!r}, expected 'env'")
    if "builder" in doc:
        return _run_builder(doc, where)
    strategies = _require(doc, "strategies", where)
    mon_doc = doc.get("monitoring", "perfect")
    if mon_doc == "perfect":
        monitoring = None
    elif isinstance(mon_doc, dict) and "tau" in mon_doc:
        monitoring = MonitoringStructure.noisy(strategies, float(mon_doc["tau"]))
    elif isinstance(mon_doc, dict) and "rows" in mon_doc:
        monitoring = MonitoringStructure(
            tuple(str(s) for s in mon_doc.get("signals", strategies)),
            np.asarray(mon_doc["rows"], dtype=float))
    else:
        raise ConfigError(f"{where}: monitoring must be 'perfect', "
                          "{tau: x}, or {signals, rows}")
    try:
        return StageEnv(
            strategies=strategies,
            consequences=_require(doc, "consequences", where),
            situations=_require(doc, "situations", where),
            kernels=[np.asarray(k, dtype=float)
                     for k in _require(doc, "kernels", where)],
            utility=np.asarray(_require(doc, "utility", where), dtype=float),
            monitoring=monitoring,
            meta=doc.get("meta"),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def load_env(path) -> StageEnv:
    return env_from_dict(read_document(path), str(path))


def save_env(env: StageEnv, path) -> None:
    _dump(env_to_dict(env), path)


# ---------------------------------------------------------------------------
# models


def model_to_dict(model: Model) -> dict:
    meta = dict(model.meta)
    if "builder" in meta and "role" in meta:
        return {"kind": "model", "builder": meta["builder"],
                "role": meta["role"], "args": meta.get("args", {})}
    for k in model.kernels:
        if not isinstance(k, DenseKernel):
            raise ConfigError(
                f"model {model.label!r} has computed kernels and no builder "
                "stamp; only builder-backed or dense-kernel models are "
                "serializable")
    doc = {
        "kind": "model",
        "label": model.label,
        "kernels": [k.table.tolist() for k in model.kernels],
        "kernel_labels": list(model.kernel_labels),
    }
    if model.strategic_certainty_form:
        doc["form"] = "certainty"
    else:
        doc["params"] = [
            {"conj_a": list(p.conj_a), "kernel": p.kernel_index, "label": p.label}
            for p in model.params]
    if meta:
        doc["meta"] = meta
    return doc


def model_from_dict(doc: dict, where: str = "<model>") -> Model:
    if doc.get("kind", "model") != "model":
        raise ConfigError(f"{where}: kind is {doc.get('kind')!r}, expected 'model'")
    if "builder" in doc:
        return _run_builder(doc, where)
    label = doc.get("label", "model")
    kernels = [DenseKernel(np.asarray(k, dtype=float))
               for k in _require(doc, "kernels", where)]
    kernel_labels = [str(s) for s in
                     doc.get("kernel_labels", range(len(kernels)))]
    if len(kernel_labels) != len(kernels):
        raise ConfigError(f"{where}: {len(kernels)} kernels but "
                          f"{len(kernel_labels)} kernel_labels")
    meta = doc.get("meta") or {}
    if doc.get("form") == "certainty":
        return _certainty_form_model(label, kernels, kernel_labels, meta)
    params = []
    for pi, pd in enumerate(_require(doc, "params", where)):
        ki = _integer(_require(pd, "kernel", f"{where}: params[{pi}]"),
                      f"params[{pi}].kernel", where)
        if not 0 <= ki < len(kernels):
            raise ConfigError(f"{where}: params[{pi}] kernel index {ki} "
                              f"out of range for {len(kernels)} kernels")
        conj = _require(pd, "conj_a", f"{where}: params[{pi}]")
        conj = tuple(_integer(c, f"params[{pi}].conj_a", where) for c in conj)
        if len(conj) != 2:
            raise ConfigError(f"{where}: params[{pi}] conj_a needs two entries")
        params.append(Parameter(conj, kernels[ki], ki,
                                label=str(pd.get("label", ""))))
    return Model(label, params, strategic_certainty_form=False,
                 kernels=kernels, kernel_labels=kernel_labels, meta=meta)


def load_model(path) -> Model:
    return model_from_dict(read_document(path), str(path))


def save_model(model: Model, path) -> None:
    _dump(model_to_dict(model), path)


# ---------------------------------------------------------------------------
# simulation configs


def sim_to_dict(cfg: SimConfig) -> dict:
    doc = {
        "kind": "sim",
        "n_agents": cfg.n_agents,
        "shares": _float_list(cfg.shares),
        "horizon": cfg.horizon,
        "seed": cfg.seed,
        "tau": cfg.tau,
        "policy": {"burn_in": cfg.policy.burn_in, "eps0": cfg.policy.eps0,
                   "kappa": cfg.policy.kappa},
    }
    if cfg.prior_a is not None:
        doc["prior_a"] = _float_list(cfg.prior_a)
    if cfg.prior_b is not None:
        doc["prior_b"] = _float_list(cfg.prior_b)
    if cfg.q is not None:
        doc["q"] = _float_list(cfg.q)
    if cfg.situation_period is not None:
        doc["situation_period"] = cfg.situation_period
    return doc


def sim_from_dict(doc: dict, where: str = "<sim>") -> SimConfig:
    if doc.get("kind", "sim") != "sim":
        raise ConfigError(f"{where}: kind is {doc.get('kind')!r}, expected 'sim'")
    pol = doc.get("policy") or {}
    try:
        return _build_sim(doc, pol, where)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _build_sim(doc: dict, pol: dict, where: str) -> SimConfig:
    return SimConfig(
            n_agents=_integer(_require(doc, "n_agents", where), "n_agents", where),
            shares=tuple(float(v) for v in _require(doc, "shares", where)),
            horizon=_integer(_require(doc, "horizon", where), "horizon", where),
            seed=_integer(_require(doc, "seed", where), "seed", where),
            tau=float(doc.get("tau", 0.99)),
            policy=Policy(burn_in=_integer(pol.get("burn_in", 10), "policy.burn_in", where),
                          eps0=float(pol.get("eps0", 0.0)),
                          kappa=float(pol.get("kappa", 1.0))),
            prior_a=None if doc.get("prior_a") is None
            else np.asarray(doc["prior_a"], dtype=float),
            prior_b=None if doc.get("prior_b") is None
            else np.asarray(doc["prior_b"], dtype=float),
            q=None if doc.get("q") is None
            else tuple(float(v) for v in doc["q"]),
            situation_period=_integer(doc.get("situation_period"), "situation_period", where),
        )


def load_sim(path) -> SimConfig:
    return sim_from_dict(read_document(path), str(path))


def save_sim(cfg: SimConfig, path) -> None:
    _dump(sim_to_dict(cfg), path)


def _dump(doc: dict, path) -> None:
    with open(path, "w") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False, default_flow_style=None)
