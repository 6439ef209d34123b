"""Reproducible simulation experiments with machine-readable reports.

Every experiment derives one independent random stream per replication
from the master seed (``SeedSequence(seed, spawn_key=(rep,))``), so the
report content is a pure function of the configuration: rerunning, or
drawing and fitting the replications in chunks of another size, changes
nothing.
"""
from __future__ import annotations

import enum
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import __version__
from .distribution import PlAptParams, Sample, _param_error, _sorted_rows, quantile, replication_rng, sample
from .exceptions import DomainError, PlaptError
from .extremes import WeightSpec, double_hill_components, gumbel_ks_distance, maxima_normalization
from .inference import _chunks, _fit_rows, _model_compare_rows, lindley_family, pl_apt_family, pseudo_lindley_family

__all__ = [
    "ExperimentKind",
    "ExperimentConfig",
    "ExperimentReport",
    "REFERENCE_PARAMETER_GRID",
    "run_experiment",
    "replication_rng",
]

# Default study grid: the rate/shape combinations of the standard quartile
# tables, keeping simulations on well-charted parameter territory.
REFERENCE_PARAMETER_GRID = tuple(
    PlAptParams(alpha, beta, theta)
    for theta in (0.6, 1.5, 3.0, 5.2)
    for alpha, beta in ((0.5, 1.1), (1.5, 1.5), (2.0, 2.5), (1.0, 1.1), (1.0, 1.5), (1.0, 2.5))
)


class ExperimentKind(str, enum.Enum):
    RECOVERY = "recovery"
    MODEL_COMPARE = "model_compare"
    EVI_COVERAGE = "evi_coverage"
    MAXIMA_GUMBEL = "maxima_gumbel"


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one simulation study.

    kind selects the study; n and reps size it; seed pins the randomness.
    truth supplies the data-generating parameters (required except for
    Pareto-based EVI coverage, where pareto_gamma > 0 selects exact Pareto
    tails with known extreme value index instead).  k_exponent sets the
    top-order-statistics count k = floor(n**k_exponent) for EVI studies.
    """

    kind: ExperimentKind
    n: int
    reps: int
    seed: int
    truth: PlAptParams | None = None
    weight: WeightSpec = field(default_factory=WeightSpec.hill)
    k_exponent: float = 0.6
    pareto_gamma: float | None = None
    alpha_grid: tuple[float, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "kind", ExperimentKind(self.kind))
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "reps", int(self.reps))
        object.__setattr__(self, "seed", int(self.seed))
        if self.reps < 1:
            raise DomainError(f"reps must be >= 1, got {self.reps}")
        if self.n < 2:
            raise DomainError(f"n must be >= 2, got {self.n}")
        if self.alpha_grid is not None:
            grid = tuple(float(a) for a in self.alpha_grid)
            if not grid or any(_param_error("alpha", a) for a in grid):
                raise DomainError(f"alpha_grid must be nonempty and hold positive reals, got {list(grid)}")
            object.__setattr__(self, "alpha_grid", grid)
        if self.kind in (ExperimentKind.RECOVERY, ExperimentKind.MODEL_COMPARE, ExperimentKind.MAXIMA_GUMBEL):
            if self.truth is None:
                raise DomainError(f"{self.kind.value} experiments require truth parameters")
        if self.kind is ExperimentKind.MAXIMA_GUMBEL:
            if self.truth.is_alpha_one:
                raise DomainError("maxima_gumbel requires alpha != 1")
            if self.n < 100:
                raise DomainError("maxima_gumbel requires n >= 100")
        if self.kind is ExperimentKind.EVI_COVERAGE:
            if self.pareto_gamma is None and self.truth is None:
                raise DomainError("evi_coverage requires truth parameters or pareto_gamma")
            if self.pareto_gamma is not None:
                object.__setattr__(self, "pareto_gamma", float(self.pareto_gamma))
                if not self.pareto_gamma > 0.0:
                    raise DomainError("pareto_gamma must be positive")
            if not (math.isfinite(self.k_exponent) and 1 <= self.k_value() <= self.n - 1):
                raise DomainError(
                    f"k_exponent = {self.k_exponent} does not give k = floor(n**k_exponent) in [1, n-1]"
                )

    def k_value(self) -> int:
        return int(self.n**self.k_exponent)


@dataclass(frozen=True, eq=False)
class ExperimentReport:
    """Per-replication records plus summary statistics and provenance."""

    config: dict
    seed: int
    version: str
    records: tuple[dict, ...]
    summary: dict
    failures: int

    def to_json(self, indent: int = 2) -> str:
        payload = {
            "config": self.config,
            "seed": self.seed,
            "version": self.version,
            "failures": self.failures,
            "summary": self.summary,
            "records": list(self.records),
        }
        return json.dumps(payload, indent=indent, sort_keys=True, allow_nan=True)


def _config_echo(cfg: ExperimentConfig) -> dict:
    echo: dict = {
        "kind": cfg.kind.value,
        "n": cfg.n,
        "reps": cfg.reps,
        "seed": cfg.seed,
        "k_exponent": cfg.k_exponent,
    }
    if cfg.truth is not None:
        echo["truth"] = {"alpha": cfg.truth.alpha, "beta": cfg.truth.beta, "theta": cfg.truth.theta}
    if cfg.kind is ExperimentKind.EVI_COVERAGE:
        echo["weight"] = {"kind": cfg.weight.kind, "s": cfg.weight.s, "tau": cfg.weight.tau}
        echo["pareto_gamma"] = cfg.pareto_gamma
        echo["k"] = cfg.k_value()
    if cfg.alpha_grid is not None:
        echo["alpha_grid"] = list(cfg.alpha_grid)
    return echo


_DEFAULT_ALPHA_GRID = (0.5, 1.0, 1.5, 2.0, 4.0)


def _replication_rows(cfg: ExperimentConfig, reps: range) -> np.ndarray:
    """The samples of replications ``reps``, one sorted row each: row i
    holds ``sample(cfg.truth, cfg.n, replication_rng(cfg.seed, reps[i]))``,
    drawn with one ``quantile`` call (it is elementwise)."""
    u = np.stack([replication_rng(cfg.seed, rep).random(cfg.n) for rep in reps])
    return _sorted_rows(quantile(cfg.truth, u))


def _recovery_record(rep: int, fit) -> dict:
    if isinstance(fit, PlaptError):
        return {"rep": rep, "ok": False, "error": str(fit)}
    if fit.status == "max_iter":
        return {"rep": rep, "ok": False, "error": "fit did not converge", "status": fit.status}
    return {
        "rep": rep,
        "ok": True,
        "status": fit.status,
        "theta_hat": fit.params.theta,
        "beta_hat": fit.params.beta,
        "stderr_theta": fit.stderr_theta,
        "stderr_beta": fit.stderr_beta,
        "loglik": fit.loglik,
        "iterations": fit.iterations,
    }


def _recovery_records(cfg: ExperimentConfig) -> list[dict]:
    # Replications are drawn and fitted a chunk at a time, so memory does
    # not grow with reps.
    records = []
    for reps in _chunks(cfg.reps, cfg.n):
        fits = _fit_rows(_replication_rows(cfg, reps), [cfg.truth.alpha])
        records.extend(_recovery_record(rep, fit) for rep, (fit,) in zip(reps, fits))
    return records


def _model_compare_record(rep: int, rows: list) -> dict:
    rec: dict = {"rep": rep, "ok": all(r.error is None for r in rows)}
    table = {}
    for r in rows:
        table[r.name] = {"loglik": r.loglik, "aic": r.aic, "bic": r.bic, "converged": r.converged}
        if r.error is not None:
            table[r.name]["error"] = r.error
    rec["families"] = table
    scored = [r for r in rows if r.error is None and math.isfinite(r.aic)]
    rec["winner"] = min(scored, key=lambda r: r.aic).name if scored else None
    if not rec["ok"]:
        rec["error"] = "; ".join(f"{r.name}: {r.error}" for r in rows if r.error is not None)
    return rec


def _model_compare_records(cfg: ExperimentConfig) -> list[dict]:
    grid = cfg.alpha_grid if cfg.alpha_grid is not None else _DEFAULT_ALPHA_GRID
    candidates = [lindley_family(), pseudo_lindley_family(), pl_apt_family(alpha_grid=grid)]
    records = []
    for reps in _chunks(cfg.reps, cfg.n):
        tables = _model_compare_rows(_replication_rows(cfg, reps), candidates)
        records.extend(_model_compare_record(rep, rows) for rep, rows in zip(reps, tables))
    return records


def _evi_coverage_rep(cfg: ExperimentConfig, rep: int) -> dict:
    rng = replication_rng(cfg.seed, rep)
    if cfg.pareto_gamma is not None:
        # Exact Pareto tails: P(X > x) = x**(-1/gamma), known EVI gamma.
        data = Sample(rng.random(cfg.n) ** (-cfg.pareto_gamma))
        target = cfg.pareto_gamma
    else:
        # Exploratory centering at 1/theta (the scale of the top spacings);
        # the family itself has extreme value index 0.
        data = sample(cfg.truth, cfg.n, rng)
        target = 1.0 / cfg.truth.theta
    try:
        rep_out = double_hill_components(data, cfg.weight, cfg.k_value())
    except PlaptError as exc:
        return {"rep": rep, "ok": False, "error": str(exc)}
    return {
        "rep": rep,
        "ok": True,
        "m_n": rep_out.m_n,
        "ci_low": rep_out.ci_low,
        "ci_high": rep_out.ci_high,
        "b_n": rep_out.b_n,
        "target": target,
        "covered": bool(rep_out.ci_low <= target <= rep_out.ci_high),
    }


def _mean_sd(values: list[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return math.nan, math.nan
    sd = float(np.std(arr, ddof=1)) if arr.size > 1 else 0.0
    return float(np.mean(arr)), sd


def _param_summary(records: list[dict], key: str, truth: float) -> dict:
    vals = [r[key] for r in records if r.get("status") == "converged"]
    mean, sd = _mean_sd(vals)
    rmse = (
        float(np.sqrt(np.mean((np.asarray(vals) - truth) ** 2))) if vals else math.nan
    )
    return {"truth": truth, "mean": mean, "bias": mean - truth, "sd": sd, "rmse": rmse}


def _summarize(cfg: ExperimentConfig, records: list[dict]) -> dict:
    ok = [r for r in records if r["ok"]]
    summary: dict = {"failure_rate": 1.0 - len(ok) / len(records)}
    if cfg.kind is ExperimentKind.RECOVERY:
        summary["theta"] = _param_summary(records, "theta_hat", cfg.truth.theta)
        summary["beta"] = _param_summary(records, "beta_hat", cfg.truth.beta)
        summary["status_counts"] = dict(Counter(r["status"] for r in records if "status" in r))
        its = [r["iterations"] for r in records if "iterations" in r]
        summary["iterations"] = {
            name: float(np.percentile(its, q)) if its else math.nan
            for name, q in (("p50", 50), ("p90", 90), ("max", 100))
        }
    elif cfg.kind is ExperimentKind.MODEL_COMPARE:
        names = sorted({name for r in ok for name in r["families"]})
        summary["mean_aic"] = {
            name: _mean_sd([r["families"][name]["aic"] for r in ok])[0] for name in names
        }
        summary["win_fraction"] = {
            name: sum(r["winner"] == name for r in ok) / len(ok) if ok else math.nan
            for name in names
        }
    elif cfg.kind is ExperimentKind.EVI_COVERAGE:
        mean, sd = _mean_sd([r["m_n"] for r in ok])
        summary["m_n"] = {"mean": mean, "sd": sd}
        summary["coverage"] = (
            sum(r["covered"] for r in ok) / len(ok) if ok else math.nan
        )
        summary["k"] = cfg.k_value()
    elif cfg.kind is ExperimentKind.MAXIMA_GUMBEL:
        vals = np.asarray([r["normalized"] for r in ok])
        summary["ks_distance"] = gumbel_ks_distance(vals)
        mean, sd = _mean_sd(list(vals))
        summary["normalized"] = {"mean": mean, "sd": sd}
    return summary


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> ExperimentReport:
    """Run every replication of the configured experiment.

    Per-replication failures (for example a fit that does not converge) are
    recorded in place, never raised; the report's ``failures`` field and
    summary ``failure_rate`` account for them.  Every kind runs in this
    process; ``recovery`` and ``model_compare`` stack their replications
    into lockstep fits.  ``workers`` is accepted for compatibility and
    changes nothing; a value below 1 is rejected.
    """
    workers = int(workers)
    if workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers}")
    if cfg.kind is ExperimentKind.MAXIMA_GUMBEL:
        result = maxima_normalization(cfg.truth, cfg.n, cfg.reps, cfg.seed)
        records = [
            {"rep": i, "ok": True, "normalized": float(v)}
            for i, v in enumerate(result.normalized)
        ]
    elif cfg.kind is ExperimentKind.RECOVERY:
        records = _recovery_records(cfg)
    elif cfg.kind is ExperimentKind.MODEL_COMPARE:
        records = _model_compare_records(cfg)
    else:
        records = [_evi_coverage_rep(cfg, rep) for rep in range(cfg.reps)]
    summary = _summarize(cfg, records)
    failures = sum(not r["ok"] for r in records)
    return ExperimentReport(
        config=_config_echo(cfg),
        seed=cfg.seed,
        version=__version__,
        records=tuple(records),
        summary=summary,
        failures=failures,
    )
