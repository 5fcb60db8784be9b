"""Experiment harness: config parsing, dispatch, structured reports.

Configs are INI files with a [metric] section naming the metric sources and
a [run] section with numeric parameters.  Metric values are either built-in
registry names or paths to metric files.  All randomness flows through one
seeded generator recorded in the report header, so a fixed seed reproduces a
byte-identical report.

Exit codes: 0 when every assertion passes, 1 on any assertion failure,
2 on configuration or usage errors.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import dsl
from .conformal import (ConformalPair, inverse_factor, lightcones_coincide,
                        scale_metric)
from .connection import _in_order
from .curves import DiscreteCurve
from .dsl import MetricDefinition, SampleBatch, TangentSample
from .errors import ConfigError, FinslabError
from .experiments import great_circle_patch
from .geodesics import (integrate_geodesic, pregeodesic_residual,
                        probe_vector, project_to_lightcone,
                        reparametrize_conformal)
from .tensors import (FundamentalTensor, cartan_tensor, fundamental_tensor,
                      inverse_metric)
from .variational import (CurveGeometry, SubmanifoldPatch, VariationField,
                          energy_derivative_fd, find_focal_points,
                          first_variation, second_variation,
                          verify_focal_correspondence)

EXPERIMENTS = ("tensors", "geodesic", "lightcone", "conformal-pregeodesic",
               "variation", "focal", "focal-correspondence")


# --------------------------------------------------------------------------
# report structures
# --------------------------------------------------------------------------

@dataclass
class Assertion:
    name: str
    value: float
    tolerance: float
    passed: bool


@dataclass
class Report:
    experiment: str
    seed: int
    assertions: list[Assertion] = field(default_factory=list)
    curves: dict[str, DiscreteCurve] = field(default_factory=dict)

    def check(self, name: str, value: float, tolerance: float,
              passed: bool | None = None) -> None:
        if passed is None:
            passed = abs(value) <= tolerance
        self.assertions.append(Assertion(name, float(value), float(tolerance), passed))

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.assertions)

    def records(self) -> str:
        lines = [f"experiment={self.experiment} seed={self.seed}"]
        for a in self.assertions:
            lines.append(
                f"experiment={self.experiment} name={a.name} value={a.value!r} "
                f"tolerance={a.tolerance!r} pass={a.passed}")
        lines.append(f"experiment={self.experiment} overall pass={self.passed}")
        return "\n".join(lines) + "\n"


def emit_report(report: Report, out_dir) -> list[Path]:
    """Write report.txt plus CSV curve dumps; returns the written paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    report_path = out / "report.txt"
    report_path.write_text(report.records())
    written.append(report_path)
    if report.curves:
        curve_dir = out / "curves"
        curve_dir.mkdir(exist_ok=True)
        for name, curve in sorted(report.curves.items()):
            path = curve_dir / f"{name}.csv"
            curve.to_csv(path)
            written.append(path)
    return written


# --------------------------------------------------------------------------
# config handling
# --------------------------------------------------------------------------

class Config:
    def __init__(self, data: dict[str, dict[str, str]], path: str):
        self.data = data
        self.path = path

    def get(self, section: str, key: str, default=None, required: bool = False):
        value = self.data.get(section, {}).get(key)
        if value is None:
            if required:
                raise ConfigError(
                    f"{self.path}: missing required key [{section}] {key}")
            return default
        return value

    def get_float(self, section, key, default=None, required=False):
        raw = self.get(section, key, required=required)
        if raw is None:
            return default
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"{self.path}: [{section}] {key} is not a number: {raw!r}")

    def get_int(self, section, key, default=None, required=False):
        raw = self.get(section, key, required=required)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{self.path}: [{section}] {key} is not an integer: {raw!r}")

    def get_vector(self, section, key, required=False):
        raw = self.get(section, key, required=required)
        if raw is None:
            return None
        try:
            return np.array([float(part) for part in raw.split(",")])
        except ValueError:
            raise ConfigError(f"{self.path}: [{section}] {key} is not a vector: {raw!r}")


def load_config(path) -> Config:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    parser.optionxform = str
    try:
        parser.read_string(path.read_text(encoding="utf-8"))
    except (configparser.Error, UnicodeDecodeError) as exc:
        # configparser spreads some messages over lines; an error is one line
        raise ConfigError(f"{path}: " + " ".join(
            line.strip() for line in str(exc).splitlines()))
    data = {section: dict(parser.items(section)) for section in parser.sections()}
    return Config(data, str(path))


def resolve_metric(value: str, cfg: Config) -> MetricDefinition:
    if value in dsl.builtin_names():
        return dsl.builtin_metric(value)
    if any(ch in value for ch in "/\\.") or value.endswith(".metric"):
        path = Path(value)
        if not path.is_absolute():
            path = Path(cfg.path).parent / path
        if not path.exists():
            raise ConfigError(f"metric file not found: {path}")
        return dsl.load_metric_file(path)
    raise ConfigError(
        f"unknown metric {value!r}; use a built-in name "
        f"({', '.join(dsl.builtin_names())}) or a metric file path")


def _metric(cfg: Config, key: str = "metric", required: bool = True
            ) -> MetricDefinition | None:
    value = cfg.get("metric", key, required=required)
    if value is None:
        return None
    return resolve_metric(value, cfg)


# the most RK steps, (t1 - t0)/step, that a curve run may take: at about
# 0.1 ms a step this is minutes of work, and it keeps the curve's arrays
# allocatable
MAX_CURVE_STEPS = 1_000_000


def _curve_inputs(cfg: Config, m: MetricDefinition, step: float,
                  t1: float | None = None, t0: float = 0.0):
    """x0, v0, t1 and step of a curve run from t0, checked before integrating;
    `step` and `t1` are the defaults (t1 is required when None)."""
    x0 = cfg.get_vector("metric", "x0", required=True)
    v0 = cfg.get_vector("metric", "v0", required=True)
    t1 = cfg.get_float("run", "t1", default=t1, required=t1 is None)
    h = cfg.get_float("run", "step", default=step)
    for bad, problem in (
            (not np.all(np.isfinite(np.r_[x0, v0, t0, t1, h])),
             "x0, v0, t0, t1 and step must be finite"),
            (x0.size != m.dim or v0.size != m.dim,
             f"x0 and v0 need {m.dim} entries for {m.name!r}"),
            (not np.any(v0), "v0 must be nonzero"),
            (not h > 0.0, f"step must be positive, got {h!r}"),
            (not t1 > t0, f"need t1 > t0, got t0={t0!r} t1={t1!r}")):
        if bad:
            raise ConfigError(f"{cfg.path}: {problem}")
    if (t1 - t0) / h > MAX_CURVE_STEPS:
        raise ConfigError(f"{cfg.path}: (t1 - t0)/step is {(t1 - t0) / h:.3g} steps, "
                          f"more than {MAX_CURVE_STEPS}")
    return x0, v0, t1, h


def _check_seed(seed: int, where: str) -> int:
    """A seed is a u64, as the generator takes it."""
    if not 0 <= seed < 2 ** 64:
        raise ConfigError(f"{where} must lie in [0, 2**64), got {seed}")
    return seed


def _check_tolerance(tol: float, where: str) -> float:
    """A tolerance is finite and positive: a check against nan or inf
    checks nothing, and one against a negative number always fails."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise ConfigError(f"{where} must be finite and positive, got {tol!r}")
    return tol


def _tolerance(cfg: Config, default: float) -> float:
    return _check_tolerance(cfg.get_float("run", "tol", default=default),
                            f"{cfg.path}: [run] tol")


# the most samples a run may take: `tensors` evaluates its samples in one
# batch, which for a 3-dimensional metric costs about 5 MB and 80 ms per
# thousand samples, so this keeps the batch's arrays allocatable
MAX_SAMPLES = 100_000


def _sample_count(cfg: Config, default: int) -> int:
    count = cfg.get_int("run", "samples", default=default)
    if not 1 <= count <= MAX_SAMPLES:
        raise ConfigError(f"{cfg.path}: samples must lie in [1, {MAX_SAMPLES}], got {count}")
    return count


def _lightlike_start(m: MetricDefinition, x0, v0) -> TangentSample:
    sample = TangentSample(x0, v0)
    return project_to_lightcone(m, sample, probe_vector(m, sample))


# --------------------------------------------------------------------------
# experiment runners
# --------------------------------------------------------------------------

def run_tensors(cfg: Config, seed: int, report: Report) -> None:
    m = _metric(cfg)
    samples = _sample_count(cfg, 100)
    rng = np.random.default_rng(seed)
    vs = dsl.sample_admissible(m, rng, count=samples)
    g, L, g2, C, C2 = _in_order(_tensors_at, m, np.array([v.x for v in vs]),
                                np.array([v.y for v in vs]))
    worst_gvv = worst_cartan_v = 0.0
    for v, gk, Lk, Ck in zip(vs, g, L.tolist(), C):
        worst_gvv = max(worst_gvv, abs(FundamentalTensor(gk, v).pair(v.y, v.y) - Lk)
                        / max(1.0, abs(Lk)))
        worst_cartan_v = max(worst_cartan_v,
                             float(np.abs(np.einsum("ijk,i->jk", Ck, v.y)).max()))
    report.check("metric-pairing-identity", worst_gvv, 1e-9)
    report.check("metric-scale-invariance", max(0.0, float(np.abs(g2 - g).max())), 1e-10)
    report.check("cartan-radial-contraction", worst_cartan_v, 1e-10)
    report.check("cartan-inverse-scaling",
                 max(0.0, float(np.abs(2.0 * C2 - C).max())), 1e-10)


def _tensors_at(m: MetricDefinition, batch: SampleBatch) -> tuple[np.ndarray, ...]:
    """g, L, g at 2v, C and C at 2v for every sample v of a batch, from four
    batched jets; one sample alone meets the checks in the order of a loop
    over samples."""
    twice = SampleBatch(batch.x, 2.0 * batch.y)
    g = fundamental_tensor(m, batch).matrix
    inverse_metric(g)   # SingularMetric on a degenerate metric
    return (g, m.value_at(batch), fundamental_tensor(m, twice).matrix,
            cartan_tensor(m, batch).array, cartan_tensor(m, twice).array)


def run_geodesic(cfg: Config, seed: int, report: Report) -> None:
    m = _metric(cfg)
    t0 = cfg.get_float("run", "t0", default=0.0)
    x0, v0, t1, h = _curve_inputs(cfg, m, step=1e-3, t0=t0)
    tol = _tolerance(cfg, 1e-8)
    curve = integrate_geodesic(m, x0, v0, (t0, t1), h)
    L0 = m.value(x0, v0)
    drift = max(abs(L - L0)
                for L in m.value(curve.positions, curve.velocities).tolist())
    report.check("speed-conservation-drift", drift, tol)
    report.curves["geodesic"] = curve


def run_lightcone(cfg: Config, seed: int, report: Report) -> None:
    m1 = _metric(cfg, "metric")
    m2 = _metric(cfg, "metric2")
    budget = _sample_count(cfg, 64)
    tol = _tolerance(cfg, 1e-8)
    pair = ConformalPair(m1, m2, sample_budget=budget, seed=seed)
    rep = lightcones_coincide(pair, tol=tol)
    report.check("coincidence-verdict", 0.0 if rep.verdict else 1.0, 0.5,
                 passed=rep.verdict)
    report.check("max-cone-violation", rep.max_violation, tol)


def run_conformal_pregeodesic(cfg: Config, seed: int, report: Report) -> None:
    m = _metric(cfg)
    lam = _metric(cfg, "lambda")
    t0 = cfg.get_float("run", "t0", default=0.0)
    x0, v0, t1, h = _curve_inputs(cfg, m, step=1e-3, t0=t0)
    tol = _tolerance(cfg, 1e-6)
    start = _lightlike_start(m, x0, v0)
    scaled, _ = scale_metric(m, lam, sample_budget=8, seed=seed)
    curve = integrate_geodesic(scaled, start.x, start.y, (t0, t1), h)
    report.check("scaled-geodesic-base-residual",
                 pregeodesic_residual(curve, m, lam), tol)
    rep, tilde = reparametrize_conformal(curve, lam, scaled)
    report.check("reparametrized-geodesic-residual",
                 pregeodesic_residual(tilde, m, None), tol)
    rep_back, _ = reparametrize_conformal(tilde, inverse_factor(lam), m)
    probe = np.linspace(tilde.t0, tilde.t1, 33)
    round_trip = float(np.abs(rep_back(rep(probe)) - probe).max())
    report.check("round-trip-parameter-error", round_trip, 1e-8)
    report.curves["scaled-geodesic"] = curve
    report.curves["reparametrized"] = tilde


def run_variation(cfg: Config, seed: int, report: Report) -> None:
    m = _metric(cfg)
    lam = _metric(cfg, "lambda", required=False)
    x0, v0, t1, h = _curve_inputs(cfg, m, step=2e-3, t1=1.0)
    count = _sample_count(cfg, 3)
    start = _lightlike_start(m, x0, v0)
    metric_for_curve = m
    if lam is not None:
        metric_for_curve, _ = scale_metric(m, lam, sample_budget=8, seed=seed)
    curve = integrate_geodesic(metric_for_curve, start.x, start.y, (0.0, t1), h)
    rng = np.random.default_rng(seed)
    geom = CurveGeometry(curve, m, lam)
    span = curve.t1 - curve.t0
    for j in range(count):
        c1 = rng.uniform(-1.0, 1.0, size=curve.dim)
        c2 = rng.uniform(-1.0, 1.0, size=curve.dim)

        def shape(t):
            tau = (t - curve.t0) / span
            return np.sin(np.pi * tau) * c1 + tau * (1.0 - tau) * c2

        W = VariationField.affine(geom, shape)
        e1 = first_variation(geom, W)
        fd1 = energy_derivative_fd(curve, W, lam, m, order=1)
        report.check(f"first-variation-match-{j}", e1 - fd1, 1e-6)
        e2 = second_variation(geom, W)
        fd2 = energy_derivative_fd(curve, W, lam, m, order=2)
        report.check(f"second-variation-match-{j}", e2 - fd2, 1e-5)


def _patch_from_config(cfg: Config, x0, v0) -> SubmanifoldPatch:
    patch_kind = cfg.get("metric", "patch", default="point")
    if patch_kind == "point":
        return SubmanifoldPatch.from_point(x0)
    if patch_kind.startswith("circle:"):
        try:
            rho = float(patch_kind.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"bad circle patch spec {patch_kind!r}")
        if not 0.0 < rho < np.pi:
            raise ConfigError(f"circle patch radius must lie in (0, pi), got {rho!r}")
        return great_circle_patch(x0, v0, rho)
    raise ConfigError(f"unknown patch spec {patch_kind!r} (use point or circle:<rho>)")


def _parse_expected(cfg: Config) -> list[tuple[float, int]]:
    raw = cfg.get("run", "expected", default="")
    out = []
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        try:
            param, mult = item.split(":")
            out.append((float(param), int(mult)))
        except ValueError:
            raise ConfigError(f"bad expected focal entry {item!r} (want param:mult)")
    return out


def run_focal(cfg: Config, seed: int, report: Report) -> None:
    m = _metric(cfg)
    x0, v0, t1, h = _curve_inputs(cfg, m, step=5e-3)
    tol = _tolerance(cfg, 1e-5)
    curve = integrate_geodesic(m, x0, v0, (0.0, t1), h)
    patch = _patch_from_config(cfg, x0, v0)
    found = find_focal_points(curve, patch, m)
    expected = _parse_expected(cfg)
    report.check("focal-count", len(found) - len(expected), 0.5,
                 passed=len(found) == len(expected))
    for k, ((param, mult), fp) in enumerate(zip(expected, found)):
        report.check(f"focal-parameter-{k}", fp.parameter - param, tol)
        report.check(f"focal-multiplicity-{k}", fp.multiplicity - mult, 0.5,
                     passed=fp.multiplicity == mult)
    report.curves["geodesic"] = curve


def run_focal_correspondence(cfg: Config, seed: int, report: Report) -> None:
    m = _metric(cfg)
    lam = _metric(cfg, "lambda")
    x0, v0, t1, h = _curve_inputs(cfg, m, step=5e-3)
    tol = _tolerance(cfg, 1e-4)
    start = _lightlike_start(m, x0, v0)
    scaled, _ = scale_metric(m, lam, sample_budget=8, seed=seed)
    v_scaled = start.y / lam.value_at(start)
    curve = integrate_geodesic(scaled, start.x, v_scaled, (0.0, t1), h)
    patch = _patch_from_config(cfg, start.x, start.y)
    corr = verify_focal_correspondence(curve, patch, lam, m, scaled=scaled,
                                       tolerance=tol)
    # equal counts pass only if there is something to pair: a curve too short
    # to reach a focal point on either side checks nothing
    report.check("focal-pair-count", len(corr.base_focal) - len(corr.scaled_focal),
                 0.5, passed=len(corr.base_focal) == len(corr.scaled_focal) > 0)
    for k, pair in enumerate(corr.pairs):
        if pair.pairing_error is None:
            report.check(f"focal-pairing-{k}", float("inf"), tol, passed=False)
        else:
            report.check(f"focal-pairing-{k}", pair.pairing_error, tol)
            report.check(f"focal-multiplicity-{k}",
                         pair.base_multiplicity - pair.scaled_multiplicity, 0.5,
                         passed=pair.base_multiplicity == pair.scaled_multiplicity)
    report.check("correspondence-matched", 0.0 if corr.matched else 1.0, 0.5,
                 passed=corr.matched)


RUNNERS = {
    "tensors": run_tensors,
    "geodesic": run_geodesic,
    "lightcone": run_lightcone,
    "conformal-pregeodesic": run_conformal_pregeodesic,
    "variation": run_variation,
    "focal": run_focal,
    "focal-correspondence": run_focal_correspondence,
}


def run_experiment(experiment: str, cfg: Config, seed: int | None = None,
                   overrides: dict | None = None) -> Report:
    if experiment not in RUNNERS:
        raise ConfigError(f"unknown experiment {experiment!r}; "
                          f"choose from {', '.join(EXPERIMENTS)}")
    if overrides:
        run_section = cfg.data.setdefault("run", {})
        for key, value in overrides.items():
            if value is not None:
                run_section[key] = repr(value)
    if seed is None:
        seed = _check_seed(cfg.get_int("run", "seed", default=0), f"{cfg.path}: [run] seed")
    report = Report(experiment=experiment, seed=seed)
    RUNNERS[experiment](cfg, seed, report)
    return report


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="finslab",
        description="Run verification experiments for pseudo-Finsler metrics.")
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", required=True, help="INI experiment config")
    parser.add_argument("--out", help="output directory for report and curves")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--step", type=float, help="override the config step")
    parser.add_argument("--tol", type=float, help="override the config tolerance")
    args = parser.parse_args(argv)
    try:
        if args.seed is not None:
            _check_seed(args.seed, "--seed")
        if args.tol is not None:
            _check_tolerance(args.tol, "--tol")
        cfg = load_config(args.config)
        # a metric jet that overflows is reported once, as the typed error
        # raised by the non-finite guards, not also as numpy warnings
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            report = run_experiment(args.experiment, cfg, seed=args.seed,
                                    overrides={"step": args.step, "tol": args.tol})
    except (FinslabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(report.records())
    if args.out:
        emit_report(report, args.out)
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
