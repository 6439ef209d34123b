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
reduces the stack to columns, numpy arrays with one entry per
replication (an ok mask, float64 estimates, object arrays of statuses,
winners and error strings):
rerunning, or chunks of another size, change nothing.  The summary reads
the columns.  One description of each kind's record turns them into the
record dicts of ``ExperimentReport.records``, built on access, or into the
report's JSON text, written a piece at a time and byte for byte what
``json.dumps(indent=2, sort_keys=True)`` makes of those dicts.
"""
from __future__ import annotations

import enum
import json
import math
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .distribution import (
    PlAptParams, _MAX_COUNT, _MAX_REPS, _first_uniforms, _integer, _param_error, _positive, _replication_rngs,
    _seed_words, _sorted_quantiles, tail_quantile,
)
from .exceptions import DomainError
from .extremes import WeightSpec, _double_hill_rows, _hill_weights, _normalized_maxima, gumbel_ks_distance
from .inference import _chunks, _fit_rows, _model_compare_rows, lindley_family, pl_apt_family, pseudo_lindley_family

__all__ = [
    "ExperimentKind",
    "ExperimentConfig",
    "ExperimentReport",
    "REFERENCE_PARAMETER_GRID",
    "run_experiment",
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
        low = 100 if self.kind is ExperimentKind.MAXIMA_GUMBEL else 2
        object.__setattr__(self, "n", _integer("n", self.n, low, _MAX_COUNT))
        object.__setattr__(self, "reps", _integer("reps", self.reps, 1, _MAX_REPS))
        object.__setattr__(self, "seed", _integer("seed", self.seed))
        _seed_words(self.seed)  # the seed rule of sample and replication_rng
        for name, kind, default in _KIND_FIELDS:
            value = getattr(self, name)  # None is matched by identity: == on an array alpha_grid is no bool
            if self.kind is not kind and (value is not None if default is None else value != default):
                raise DomainError(f"{name} applies to {kind.value} experiments, not {self.kind.value}")
        if self.truth is not None and self.pareto_gamma is not None:
            raise DomainError("evi_coverage takes truth parameters or pareto_gamma, not both")
        if self.alpha_grid is not None:
            grid = tuple(float(a) for a in self.alpha_grid)
            if not grid or any(_param_error("alpha", a) for a in grid):
                raise DomainError(f"alpha_grid must be nonempty and hold positive reals, got {list(grid)}")
            object.__setattr__(self, "alpha_grid", grid)
        if self.truth is None and self.kind is not ExperimentKind.EVI_COVERAGE:
            raise DomainError(f"{self.kind.value} experiments require truth parameters")
        if self.kind is ExperimentKind.EVI_COVERAGE:
            if self.pareto_gamma is None and self.truth is None:
                raise DomainError("evi_coverage requires truth parameters or pareto_gamma")
            if self.pareto_gamma is not None:
                object.__setattr__(self, "pareto_gamma", _positive("pareto_gamma", self.pareto_gamma))
            if not (math.isfinite(self.k_exponent) and 1 <= self.k_value() <= self.n - 1):
                raise DomainError(
                    f"k_exponent = {self.k_exponent} does not give k = floor(n**k_exponent) in [1, n-1]"
                )
            object.__setattr__(self, "_weights", _hill_weights(self.weight, self.k_value()))  # formed once

    def k_value(self) -> int:
        return int(self.n**self.k_exponent)


# Each field that one kind alone reads: its name, that kind and its default
_KIND_FIELDS = (
    ("alpha_grid", ExperimentKind.MODEL_COMPARE, None),
    ("pareto_gamma", ExperimentKind.EVI_COVERAGE, None),
    ("weight", ExperimentKind.EVI_COVERAGE, WeightSpec.hill()),
    ("k_exponent", ExperimentKind.EVI_COVERAGE, ExperimentConfig.k_exponent),
)


class _Records:
    # ExperimentReport.records: a tuple of record dicts given to the
    # constructor (as dataclasses.replace gives them), or else, by default,
    # the dicts built from the report's columns on each access.

    def __get__(self, report, owner=None):
        if report is None:
            return None  # the field's default
        if report.__dict__["_records"] is not None:
            return report.__dict__["_records"]
        records = _RECORDS[ExperimentKind(report.config["kind"])]
        return tuple(records(report.columns, range(report.config["reps"]), _Values))

    def __set__(self, report, records):
        report.__dict__["_records"] = records


@dataclass(frozen=True, eq=False)
class ExperimentReport:
    """Summary statistics and provenance of a study, with its
    per-replication results held as columns: ``columns`` maps a name to a
    numpy array (object arrays for strings), one entry per replication, in
    replication order.  ``records`` builds one dict per replication from
    them on each access (records given to the constructor replace those
    dicts, not the columns); ``json_chunks`` writes from the columns."""

    config: dict
    seed: int
    version: str
    summary: dict
    failures: int
    columns: dict
    records: tuple | None = _Records()

    def json_chunks(self) -> Iterator[str]:
        """The report's JSON text in pieces, byte for byte ``json.dumps`` of
        config, seed, version, failures, summary and records (as dicts) with
        ``indent=2, sort_keys=True, allow_nan=True``.  The records are
        written from the columns, ``_WRITE_ROWS`` at a time."""
        records = _RECORDS[ExperimentKind(self.config["kind"])]
        reps = self.config["reps"]
        yield f'{{\n  "config": {_dumps(self.config)},\n  "failures": {_dumps(self.failures)},\n  "records": [\n    '
        for start in range(0, reps, _WRITE_ROWS):
            rows = range(start, min(start + _WRITE_ROWS, reps))
            piece = {name: col[start : rows.stop] for name, col in self.columns.items()}
            yield (",\n    " if start else "") + ",\n    ".join(records(piece, rows, _Texts))
        yield (
            f'\n  ],\n  "seed": {_dumps(self.seed)},\n  "summary": {_dumps(self.summary)},'
            f'\n  "version": {_dumps(self.version)}\n}}'
        )

    def to_json(self) -> str:
        return "".join(self.json_chunks())


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
# The model_compare candidates, in the order their errors are joined
_FAMILIES = ("lindley", "pseudo_lindley", "pl_apt")
_RECOVERY_FLOATS = ("theta_hat", "beta_hat", "stderr_theta", "stderr_beta", "loglik")
_EVI_FLOATS = ("m_n", "ci_low", "ci_high", "b_n", "target")


# The row function of each kind turns a chunk's stack of rows into its
# columns, one entry per replication of the chunk: an "ok" mask, float64
# arrays and object arrays of strings (None where a record has no such field).


def _recovery_columns(cfg: ExperimentConfig, u: np.ndarray) -> dict:
    fits = _fit_rows(_sorted_quantiles(cfg.truth, u), [cfg.truth.alpha])
    status, error = (v[:, 0] for v in fits.outcomes())
    estimates = (fits.theta, fits.beta, fits.stderr_theta, fits.stderr_beta, fits.loglik)
    return {
        "ok": np.equal(error, None),
        **{key: v[:, 0] for key, v in zip(_RECOVERY_FLOATS, estimates)},
        "iterations": fits.iterations[:, 0],
        "status": status,
        "error": error,
    }


def _model_compare_columns(cfg: ExperimentConfig, u: np.ndarray) -> dict:
    grid = cfg.alpha_grid if cfg.alpha_grid is not None else _DEFAULT_ALPHA_GRID
    candidates = [lindley_family(), pseudo_lindley_family(), pl_apt_family(alpha_grid=grid)]
    # (replications, families) arrays, families in _FAMILIES order
    cols = _model_compare_rows(_sorted_quantiles(cfg.truth, u), candidates)
    flagged = np.not_equal(cols["error"], None)
    scored = ~flagged & np.isfinite(cols["aic"])
    # the first family of least AIC among those scored, as min() picks it
    best = np.where(scored, cols["aic"], math.inf).argmin(axis=1)
    return {
        "ok": ~flagged.any(axis=1),
        **{key: cols[key] for key in ("loglik", "aic", "bic", "converged")},
        "family_error": cols["error"],
        "winner": np.where(scored.any(axis=1), np.array(_FAMILIES, object)[best], None),
        "error": np.array([
            "; ".join(f"{name}: {err}" for name, err in zip(_FAMILIES, errors) if err is not None) or None
            for errors in cols["error"].tolist()
        ], object),
    }


def _smallest_tail_masses(rows: np.ndarray) -> np.ndarray:
    """The k + 1 smallest of n uniform tail masses, ascending, from each row
    of k + 1 standard exponentials E_j and one G ~ Gamma(n - k): S_j /
    (S_{k+1} + G) with S_j = E_1 + ... + E_j (Renyi 1953), to full relative
    precision."""
    s = np.cumsum(rows[:, :-1], axis=1)
    return s / (s[:, -1:] + rows[:, -1:])


def _evi_coverage_columns(cfg: ExperimentConfig, rows: np.ndarray) -> dict:
    # The top k + 1 order statistics are the images of the k + 1 smallest
    # tail masses v: v**-gamma, exact Pareto tails of EVI gamma, or
    # tail_quantile(v), centred at 1/theta, the scale of the top spacings
    # (the family's own EVI is 0).
    v = _smallest_tail_masses(rows)
    if cfg.pareto_gamma is not None:
        top, target = v**-cfg.pareto_gamma, cfg.pareto_gamma
    else:
        top, target = tail_quantile(cfg.truth, v), 1.0 / cfg.truth.theta
    stats, errors = _double_hill_rows(np.sort(top, axis=1), cfg._weights)
    error = np.array([None if e is None else str(e) for e in errors], object)
    return {
        "ok": np.equal(error, None),
        "m_n": stats["m_n"],
        "ci_low": stats["ci_low"],
        "ci_high": stats["ci_high"],
        "b_n": np.full(len(errors), cfg._weights[4]),
        "target": np.full(len(errors), target),
        "covered": (stats["ci_low"] <= target) & (target <= stats["ci_high"]),
        "error": error,
    }


def _maxima_gumbel_columns(cfg: ExperimentConfig, g: np.ndarray) -> dict:
    # every maximum is ok
    return {"ok": np.ones(len(g), bool), "normalized": _normalized_maxima(cfg.truth, cfg.n, g[:, 0])}


_ROW_COLUMNS = {
    ExperimentKind.RECOVERY: _recovery_columns,
    ExperimentKind.MODEL_COMPARE: _model_compare_columns,
    ExperimentKind.EVI_COVERAGE: _evi_coverage_columns,
    ExperimentKind.MAXIMA_GUMBEL: _maxima_gumbel_columns,
}


# The records of each kind: given the columns of replications reps and an
# encoding (_Values or _Texts), each replication's record.  enc.obj(keys)
# makes the objects with those keys, given in the order of the record
# dicts, from their values in that order.


def _recovery_records(cols: dict, reps: range, enc) -> Iterator:
    fitted = enc.obj(("rep", "ok", "status", *_RECOVERY_FLOATS, "iterations"))
    failed, stopped = enc.obj(("rep", "ok", "error")), enc.obj(("rep", "ok", "error", "status"))
    floats = zip(*(enc.floats(cols[key]) for key in _RECOVERY_FLOATS))
    for rep, ok, has_status, status, error, its, values in zip(
        enc.ints(reps), cols["ok"].tolist(), cols["status"], enc.strs(cols["status"]), enc.strs(cols["error"]),
        enc.ints(cols["iterations"].tolist()), floats,
    ):
        if ok:
            yield fitted(rep, enc.true, status, *values, its)
        elif has_status:  # a fit stopped at the iteration limit
            yield stopped(rep, enc.false, error, status)
        else:
            yield failed(rep, enc.false, error)


def _model_compare_records(cols: dict, reps: range, enc) -> Iterator:
    fitted = enc.obj(("loglik", "aic", "bic", "converged"), 4)
    flagged = enc.obj(("loglik", "aic", "bic", "converged", "error"), 4)
    table = enc.obj(_FAMILIES, 3)
    compared = enc.obj(("rep", "ok", "families", "winner"))
    failed = enc.obj(("rep", "ok", "families", "winner", "error"))
    # the families of every replication in turn, each in _FAMILIES order
    family_errors = cols["family_error"].ravel().tolist()
    floats = (enc.floats(cols[key].ravel()) for key in ("loglik", "aic", "bic"))
    values = zip(family_errors, enc.strs(family_errors), *floats, enc.bools(cols["converged"].ravel().tolist()))
    families = [fitted(*v) if e is None else flagged(*v, text) for e, text, *v in values]
    oks, winners, errors = cols["ok"].tolist(), enc.strs(cols["winner"]), enc.strs(cols["error"])
    for r, (rep, ok, winner, error) in enumerate(zip(enc.ints(reps), oks, winners, errors)):
        row = table(*families[r * len(_FAMILIES) : (r + 1) * len(_FAMILIES)])
        yield compared(rep, enc.true, row, winner) if ok else failed(rep, enc.false, row, winner, error)


def _evi_coverage_records(cols: dict, reps: range, enc) -> Iterator:
    covered = enc.obj(("rep", "ok", *_EVI_FLOATS, "covered"))
    failed = enc.obj(("rep", "ok", "error"))
    floats = zip(*(enc.floats(cols[key]) for key in _EVI_FLOATS))
    for rep, ok, cov, error, values in zip(
        enc.ints(reps), cols["ok"].tolist(), enc.bools(cols["covered"].tolist()), enc.strs(cols["error"]), floats
    ):
        yield covered(rep, enc.true, *values, cov) if ok else failed(rep, enc.false, error)


def _maxima_gumbel_records(cols: dict, reps: range, enc) -> Iterator:
    normalized = enc.obj(("rep", "ok", "normalized"))
    return map(normalized, enc.ints(reps), [enc.true] * len(reps), enc.floats(cols["normalized"]))


_RECORDS = {
    ExperimentKind.RECOVERY: _recovery_records,
    ExperimentKind.MODEL_COMPARE: _model_compare_records,
    ExperimentKind.EVI_COVERAGE: _evi_coverage_records,
    ExperimentKind.MAXIMA_GUMBEL: _maxima_gumbel_records,
}


class _Values:
    """Python values, each object a dict: ``ExperimentReport.records``."""

    true, false = True, False
    floats = staticmethod(np.ndarray.tolist)
    ints = bools = strs = staticmethod(list)

    @staticmethod
    def obj(keys: tuple, depth: int = 2):
        return lambda *values: dict(zip(keys, values))


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


class _Texts:
    """JSON texts, as ``json.dumps(indent=2, sort_keys=True, allow_nan=True)``
    writes them; a record is an object at nesting depth 2 (in the records
    list of the report object)."""

    true, false = "true", "false"

    @staticmethod
    def floats(values: np.ndarray) -> list[str]:
        texts = list(map(repr, values.tolist()))  # float.__repr__
        for i in np.flatnonzero(~np.isfinite(values)).tolist():
            texts[i] = _NONFINITE[texts[i]]
        return texts

    @staticmethod
    def ints(values) -> list[str]:
        return list(map(str, values))

    @staticmethod
    def bools(values) -> list[str]:
        return ["true" if v else "false" for v in values]

    @staticmethod
    def strs(values) -> list[str]:
        return ["null" if v is None else json.encoder.encode_basestring_ascii(v) for v in values]

    @staticmethod
    def obj(keys: tuple, depth: int = 2):
        # a str.format template, its fields in key order
        inner = "\n" + "  " * (depth + 1)
        body = ("," + inner).join(f'"{keys[i]}": {{{i}}}' for i in sorted(range(len(keys)), key=keys.__getitem__))
        return ("{{" + inner + body + "\n" + "  " * depth + "}}").format


def _dumps(value) -> str:
    # a top-level entry of the report, one level in
    return json.dumps(value, indent=2, sort_keys=True, allow_nan=True).replace("\n", "\n  ")


_WRITE_ROWS = 4096  # records in a piece of report text


def _row_draw(cfg: ExperimentConfig) -> tuple:
    """The width of one replication's row and the function that draws a
    chunk of replications' rows: one uniform (maxima_gumbel), computed
    straight from each stream's seed words by ``_first_uniforms``; k + 1
    standard exponentials then one Gamma(n - k) variate (evi_coverage); or n
    uniforms, the last two drawn by each replication's generator into its
    row of the chunk."""
    if cfg.kind is ExperimentKind.MAXIMA_GUMBEL:
        return 1, lambda reps: _first_uniforms(cfg.seed, reps)[:, None]
    if cfg.kind is ExperimentKind.EVI_COVERAGE:
        k = cfg.k_value()

        def fill(rng, row):
            rng.standard_exponential(out=row[:-1])
            row[-1] = rng.standard_gamma(cfg.n - k)

        width = k + 2
    else:
        width = cfg.n

        def fill(rng, row):
            rng.random(out=row)

    def draw(reps):
        rows = np.empty((len(reps), width))
        for rng, row in zip(_replication_rngs(cfg.seed, reps), rows):
            fill(rng, row)
        return rows

    return width, draw


def _mean_sd(values: np.ndarray) -> tuple[float, float]:
    if values.size == 0:
        return math.nan, math.nan
    sd = float(np.std(values, ddof=1)) if values.size > 1 else 0.0
    return float(np.mean(values)), sd


def _param_summary(values: np.ndarray, truth: float) -> dict:
    mean, sd = _mean_sd(values)
    rmse = float(np.sqrt(np.mean((values - truth) ** 2))) if values.size else math.nan
    return {"truth": truth, "mean": mean, "bias": mean - truth, "sd": sd, "rmse": rmse}


def _summarize(cfg: ExperimentConfig, columns: dict) -> dict:
    ok = columns["ok"]
    n_ok = int(np.count_nonzero(ok))
    summary: dict = {"failure_rate": 1.0 - n_ok / cfg.reps}
    if cfg.kind is ExperimentKind.RECOVERY:
        converged = columns["status"] == "converged"
        summary["theta"] = _param_summary(columns["theta_hat"][converged], cfg.truth.theta)
        summary["beta"] = _param_summary(columns["beta_hat"][converged], cfg.truth.beta)
        summary["status_counts"] = dict(Counter(s for s in columns["status"] if s is not None))
        its = columns["iterations"][ok]
        pcts = np.percentile(its, (50, 90, 100)).tolist() if its.size else [math.nan] * 3
        summary["iterations"] = dict(zip(("p50", "p90", "max"), pcts))
    elif cfg.kind is ExperimentKind.MODEL_COMPARE:
        names = sorted(_FAMILIES) if n_ok else []
        summary["mean_aic"] = {name: float(np.mean(columns["aic"][ok, _FAMILIES.index(name)])) for name in names}
        wins = Counter(columns["winner"][ok].tolist())
        summary["win_fraction"] = {name: wins[name] / n_ok for name in names}
    elif cfg.kind is ExperimentKind.EVI_COVERAGE:
        mean, sd = _mean_sd(columns["m_n"][ok])
        summary["m_n"] = {"mean": mean, "sd": sd}
        summary["coverage"] = int(np.count_nonzero(columns["covered"][ok])) / n_ok if n_ok else math.nan
        summary["k"] = cfg.k_value()
    elif cfg.kind is ExperimentKind.MAXIMA_GUMBEL:
        vals = columns["normalized"]  # every maximum is ok
        summary["ks_distance"] = gumbel_ks_distance(vals)
        mean, sd = _mean_sd(vals)
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
    chunk's stack of rows into its columns, copied into the study's.  So
    maxima_gumbel and evi_coverage cost the same at any n, and a
    replication costs the report a few numbers, not a dict: the summary
    reads the columns, and ``ExperimentReport.records`` and ``to_json``
    turn them into dicts and text only when asked.
    Per-replication failures (for example a fit that does not converge, or
    a sample with a quantile beyond the float range: "sample values must
    be finite") are recorded in place, never raised; the report's
    ``failures`` field and summary ``failure_rate`` count them.
    """
    width, draw = _row_draw(cfg)
    columns: dict = {}
    for reps in _chunks(cfg.reps, width):
        for name, col in _ROW_COLUMNS[cfg.kind](cfg, draw(reps)).items():
            if name not in columns:
                columns[name] = np.empty((cfg.reps, *col.shape[1:]), col.dtype)
            columns[name][reps.start : reps.stop] = col
    return ExperimentReport(
        config=_config_echo(cfg),
        seed=cfg.seed,
        version=__version__,
        summary=_summarize(cfg, columns),
        failures=cfg.reps - int(np.count_nonzero(columns["ok"])),
        columns=columns,
    )
