"""Reproducible simulation experiments with machine-readable reports.

Every experiment derives one independent random stream per replication
from the master seed, bit for bit ``SeedSequence(seed, spawn_key=(rep,))``
for a nonnegative seed and replication indices below 2**32, the streams of
a chunk of replications at a time, so the report content is a pure
function of the configuration.  Each kind draws only what it reads, one
row per replication: n uniforms for the fitting studies, the one uniform
that fixes a sample maximum (maxima_gumbel), and the k + 2 variates that
fix the k + 1 smallest of n uniform tail masses (evi_coverage).  The one
uniform is computed straight from the stream's seed words, bit-identical
to the stream's own first draw, with no generator.
Replications run a chunk of rows at a time, and the kind's row function
reduces the stack: rerunning, or chunks of another size, change nothing.
"""
from __future__ import annotations

import enum
import json
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .distribution import (
    PlAptParams, _MAX_REPS, _first_uniforms, _param_error, _replication_rngs, _sorted_rows, quantile,
    replication_rng, tail_quantile,
)
from .exceptions import DomainError, PlaptError
from .extremes import WeightSpec, _double_hill_rows, _hill_weights, _normalized_maxima, gumbel_ks_distance
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
    top-order-statistics count k = floor(n**k_exponent) for EVI studies,
    whose weights must serve that k.  A field one kind reads is rejected for
    the others: alpha_grid (model_compare), pareto_gamma, any weight but
    plain Hill and any k_exponent but its default (evi_coverage).
    evi_coverage takes truth or pareto_gamma, not both.  Every kind takes
    any truth, alpha = 1 included; maxima_gumbel needs n >= 100.
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
    _weights: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "kind", ExperimentKind(self.kind))
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "reps", int(self.reps))
        object.__setattr__(self, "seed", int(self.seed))
        if not 1 <= self.reps <= _MAX_REPS:
            raise DomainError(f"reps must lie in [1, 2**32], got {self.reps}")
        if self.n < 2:
            raise DomainError(f"n must be >= 2, got {self.n}")
        if self.seed < 0:
            raise DomainError(f"seed must be a nonnegative integer, got {self.seed}")
        if self.alpha_grid is not None and self.kind is not ExperimentKind.MODEL_COMPARE:
            raise DomainError(f"alpha_grid applies to model_compare experiments, not {self.kind.value}")
        if self.pareto_gamma is not None and self.kind is not ExperimentKind.EVI_COVERAGE:
            raise DomainError(f"pareto_gamma applies to evi_coverage experiments, not {self.kind.value}")
        if self.weight != WeightSpec.hill() and self.kind is not ExperimentKind.EVI_COVERAGE:
            raise DomainError(f"weight applies to evi_coverage experiments, not {self.kind.value}")
        if self.k_exponent != type(self).k_exponent and self.kind is not ExperimentKind.EVI_COVERAGE:
            raise DomainError(f"k_exponent applies to evi_coverage experiments, not {self.kind.value}")
        if self.truth is not None and self.pareto_gamma is not None:
            raise DomainError("evi_coverage takes truth parameters or pareto_gamma, not both")
        if self.alpha_grid is not None:
            grid = tuple(float(a) for a in self.alpha_grid)
            if not grid or any(_param_error("alpha", a) for a in grid):
                raise DomainError(f"alpha_grid must be nonempty and hold positive reals, got {list(grid)}")
            object.__setattr__(self, "alpha_grid", grid)
        if self.truth is None and self.kind is not ExperimentKind.EVI_COVERAGE:
            raise DomainError(f"{self.kind.value} experiments require truth parameters")
        if self.kind is ExperimentKind.MAXIMA_GUMBEL and self.n < 100:
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
            object.__setattr__(self, "_weights", _hill_weights(self.weight, self.k_value()))  # formed once

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
        if cfg.weight.kind == "custom":
            echo["weight"]["table"] = list(cfg.weight.table)
        echo["pareto_gamma"] = cfg.pareto_gamma
        echo["k"] = cfg.k_value()
    if cfg.alpha_grid is not None:
        echo["alpha_grid"] = list(cfg.alpha_grid)
    return echo


_DEFAULT_ALPHA_GRID = (0.5, 1.0, 1.5, 2.0, 4.0)


def _recovery_records(cfg: ExperimentConfig, reps: range, u: np.ndarray) -> list[dict]:
    fits = _fit_rows(_sorted_rows(quantile(cfg.truth, u)), [cfg.truth.alpha])
    return [_recovery_record(rep, fit) for rep, (fit,) in zip(reps, fits)]


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


def _model_compare_records(cfg: ExperimentConfig, reps: range, u: np.ndarray) -> list[dict]:
    grid = cfg.alpha_grid if cfg.alpha_grid is not None else _DEFAULT_ALPHA_GRID
    candidates = [lindley_family(), pseudo_lindley_family(), pl_apt_family(alpha_grid=grid)]
    tables = _model_compare_rows(_sorted_rows(quantile(cfg.truth, u)), candidates)
    return [_model_compare_record(rep, rows) for rep, rows in zip(reps, tables)]


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


def _smallest_tail_masses(rows: np.ndarray) -> np.ndarray:
    """The k + 1 smallest of n uniform tail masses, ascending, from each row
    of k + 1 standard exponentials E_j and one G ~ Gamma(n - k): S_j /
    (S_{k+1} + G) with S_j = E_1 + ... + E_j (Renyi 1953), to full relative
    precision."""
    s = np.cumsum(rows[:, :-1], axis=1)
    return s / (s[:, -1:] + rows[:, -1:])


def _evi_coverage_records(cfg: ExperimentConfig, reps: range, rows: np.ndarray) -> list[dict]:
    # The top k + 1 order statistics are the images of the k + 1 smallest
    # tail masses v: v**-gamma, exact Pareto tails of EVI gamma, or
    # tail_quantile(v), centred at 1/theta, the scale of the top spacings
    # (the family's own EVI is 0).
    v = _smallest_tail_masses(rows)
    if cfg.pareto_gamma is not None:
        top, target = v**-cfg.pareto_gamma, cfg.pareto_gamma
    else:
        top, target = tail_quantile(cfg.truth, v), 1.0 / cfg.truth.theta
    reports = _double_hill_rows(np.sort(top, axis=1), cfg._weights)
    return [_evi_coverage_record(rep, report, target) for rep, report in zip(reps, reports)]


def _evi_coverage_record(rep: int, report, target: float) -> dict:
    if isinstance(report, PlaptError):
        return {"rep": rep, "ok": False, "error": str(report)}
    return {
        "rep": rep,
        "ok": True,
        "m_n": report.m_n,
        "ci_low": report.ci_low,
        "ci_high": report.ci_high,
        "b_n": report.b_n,
        "target": target,
        "covered": bool(report.ci_low <= target <= report.ci_high),
    }


def _maxima_gumbel_records(cfg: ExperimentConfig, reps: range, g: np.ndarray) -> list[dict]:
    normalized = _normalized_maxima(cfg.truth, cfg.n, g[:, 0])
    return [{"rep": rep, "ok": True, "normalized": z} for rep, z in zip(reps, normalized.tolist())]


# The row function of each kind: a chunk's replications and rows to records.
_ROW_RECORDS = {
    ExperimentKind.RECOVERY: _recovery_records,
    ExperimentKind.MODEL_COMPARE: _model_compare_records,
    ExperimentKind.EVI_COVERAGE: _evi_coverage_records,
    ExperimentKind.MAXIMA_GUMBEL: _maxima_gumbel_records,
}


def _row_draw(cfg: ExperimentConfig) -> tuple:
    """The width of one replication's row and the function that draws a
    chunk of replications' rows: one uniform (maxima_gumbel), computed
    straight from each stream's seed words by ``_first_uniforms``; k + 1
    standard exponentials then one Gamma(n - k) variate (evi_coverage); or n
    uniforms, the last two from each replication's generator."""
    if cfg.kind is ExperimentKind.MAXIMA_GUMBEL:
        return 1, lambda reps: _first_uniforms(cfg.seed, reps)[:, None]
    if cfg.kind is ExperimentKind.EVI_COVERAGE:
        k = cfg.k_value()
        width, row = k + 2, lambda rng: np.append(rng.standard_exponential(k + 1), rng.standard_gamma(cfg.n - k))
    else:
        width, row = cfg.n, lambda rng: rng.random(cfg.n)
    return width, lambda reps: np.stack([row(rng) for rng in _replication_rngs(cfg.seed, reps)])


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
        pcts = np.percentile(its, (50, 90, 100)).tolist() if its else [math.nan] * 3
        summary["iterations"] = dict(zip(("p50", "p90", "max"), pcts))
    elif cfg.kind is ExperimentKind.MODEL_COMPARE:
        names = sorted({name for r in ok for name in r["families"]})
        summary["mean_aic"] = {
            name: float(np.mean([r["families"][name]["aic"] for r in ok])) for name in names
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


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Run every replication of the configured experiment in this process.

    Replication ``rep`` draws its row (``_row_draw``: n uniforms for
    recovery and model_compare, one uniform for maxima_gumbel, k + 2
    variates for evi_coverage) from its own stream, bit for bit
    ``default_rng(SeedSequence(cfg.seed, spawn_key=(rep,)))`` (reps <=
    2**32), a chunk of replications (``inference._chunks``, sized by the row
    width) at a time: the chunk's streams are derived in one pass (for
    maxima_gumbel, each stream's first uniform is computed straight from its
    seed words, with no generator), and the kind's row function turns the
    chunk's stack of rows into its records.  So maxima_gumbel and
    evi_coverage cost the same at any n.
    Per-replication failures (for example a fit that does not converge) are
    recorded in place, never raised; the report's ``failures`` field and
    summary ``failure_rate`` count them.
    """
    width, draw = _row_draw(cfg)
    records = []
    for reps in _chunks(cfg.reps, width):
        records.extend(_ROW_RECORDS[cfg.kind](cfg, reps, draw(reps)))
    return ExperimentReport(
        config=_config_echo(cfg),
        seed=cfg.seed,
        version=__version__,
        records=tuple(records),
        summary=_summarize(cfg, records),
        failures=sum(not r["ok"] for r in records),
    )
