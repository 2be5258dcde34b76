"""Command-line front end.

Subcommands: classify, path, agree-prob, simulate, same-variance,
observer-replay.  Every run is pure given its resolved configuration and
seed; runs that write files also write a manifest listing each output with
its SHA-256 digest, and re-running with the manifest's config reproduces
the digests exactly.

Configuration can come from a flat INI file (sections [model], [run],
[output]); command-line flags win over file values.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import io
import json
import os
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .beliefs import GaussianFamilyParams, InvalidParameterError
from .consensus import (
    consensus_path,
    divergence_test,
    immediate_agreement_prob,
)
from .montecarlo import (
    ExperimentConfig,
    GaussianSpec,
    MixtureSpec,
    build_model,
    run_experiment,
    same_variance_experiment,
    spec_from_dict,
    spec_to_dict,
)
from .observer import replay
from .tails import (
    TailClassification,
    Verdict,
    classify_empirical,
    classify_gaussian,
    classify_mixture,
)

EXIT_OK = 0
EXIT_UNDETERMINED = 2
EXIT_USAGE = 64

OUT_DIR_ENV = "HERDLEARN_OUT_DIR"


class _Parser(argparse.ArgumentParser):
    """argparse that exits with the usage code the file contract fixes."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


# Rows formatted per block: whole-column cell lists would hold every cell of
# a large file in memory at once.
CSV_BLOCK_ROWS = 1024


def _cells(column: np.ndarray) -> list:
    """Locale-independent CSV cells: shortest round-trip ``repr`` for floats
    (an empty cell for NaN), ``str`` for everything else."""
    values = column.tolist()
    if column.dtype.kind != "f":
        return list(map(str, values))
    cells = list(map(repr, values))
    for i in np.flatnonzero(np.isnan(column)).tolist():
        cells[i] = ""
    return cells


def _csv_lines(
    header: Sequence[str], columns: Sequence, comments: Sequence[str] = ()
) -> str:
    """CSV text from equal-length columns, after ``# `` comment lines."""
    columns = [np.asarray(c) for c in columns]
    buf = io.StringIO()
    for c in comments:
        buf.write(f"# {c}\n")
    buf.write(",".join(header) + "\n")
    for lo in range(0, len(columns[0]), CSV_BLOCK_ROWS):
        cells = [_cells(c[lo : lo + CSV_BLOCK_ROWS]) for c in columns]
        buf.write("\n".join(map(",".join, zip(*cells))) + "\n")
    return buf.getvalue()


@dataclass
class _Manifest:
    command: str
    config: dict
    master_seed: Optional[int]
    started_utc: str
    outputs: list = field(default_factory=list)

    def add(self, path: Path, content: str) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        data = content.encode("utf-8")
        path.write_bytes(data)
        self.outputs.append(
            {"path": path.name, "sha256": hashlib.sha256(data).hexdigest()}
        )

    def add_relative(self, root: Path, rel: str, content: str) -> None:
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        data = content.encode("utf-8")
        path.write_bytes(data)
        self.outputs.append(
            {"path": rel, "sha256": hashlib.sha256(data).hexdigest()}
        )

    def write(self, out_dir: Path) -> None:
        payload = {
            "command": self.command,
            "artifact_version": __version__,
            "config": self.config,
            "master_seed": self.master_seed,
            "started_utc": self.started_utc,
            "finished_utc": datetime.now(timezone.utc).isoformat(),
            "outputs": self.outputs,
        }
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "manifest.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )


def _load_config_file(path: str) -> dict:
    """Flat INI -> {key: string}; sections only group keys, names stay flat."""
    parser = configparser.ConfigParser()
    flat: dict = {}
    try:
        if not parser.read(path, encoding="utf-8"):
            raise InvalidParameterError(f"config file not found: {path}")
        for section in parser.sections():
            for key, value in parser.items(section):
                flat[key.replace("-", "_")] = value
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise InvalidParameterError(f"bad config file {path}: {exc}") from exc
    return flat


_CONFIG_TYPES = {
    "sigma": float,
    "tau": float,
    "m0": float,
    "mixture": float,
    "gamma": float,
    "horizon": int,
    "trajectories": int,
    "initial_r": float,
    "seed": int,
    "omega": int,
    "theta": str,
    "workers": int,
    "x_max": float,
    "grid": int,
    "regime": str,
    "out": str,
    "traces": lambda s: s.strip().lower() in ("1", "true", "yes", "on"),
    "actions_file": str,
}


def _resolve(args: argparse.Namespace, key: str, default=None):
    """Flag value if given, else config-file value, else default."""
    value = getattr(args, key, None)
    if value is not None:
        return value
    file_values = getattr(args, "_file_values", {})
    if key in file_values:
        caster = _CONFIG_TYPES.get(key, str)
        try:
            return caster(file_values[key])
        except ValueError as exc:
            raise InvalidParameterError(
                f"bad config value for {key}: {file_values[key]!r}"
            ) from exc
    return default


def _model_spec(args: argparse.Namespace, noise_optional: bool = False):
    """Model spec from flags/config.

    Commands that only use the informative pair (the all-G path and the
    agreement products for regimes g/b) may omit the noise law; a
    placeholder tau = 2*sigma is then filled in and never evaluated.
    """
    sigma = _resolve(args, "sigma")
    if sigma is None:
        raise InvalidParameterError("a model needs --sigma")
    mixture = _resolve(args, "mixture")
    if mixture is not None:
        return MixtureSpec(sigma=sigma, alpha=mixture)
    tau = _resolve(args, "tau")
    if tau is None:
        if noise_optional:
            return GaussianSpec(sigma=sigma, tau=2.0 * sigma, m0=0.0)
        raise InvalidParameterError("a Gaussian model needs --tau (or use --mixture)")
    return GaussianSpec(sigma=sigma, tau=tau, m0=_resolve(args, "m0", 0.0))


def _out_dir(args: argparse.Namespace) -> Optional[Path]:
    out = _resolve(args, "out")
    if out is None:
        out = os.environ.get(OUT_DIR_ENV)
    return Path(out) if out else None


def _steps(n: int) -> np.ndarray:
    """The 1-based ``t`` column of an n-row file."""
    return np.arange(1, n + 1)


def _evidence_csv(result: TailClassification, comments: Sequence[str]) -> str:
    return _csv_lines(
        TailClassification.EVIDENCE_COLUMNS, result.evidence.T, comments=comments
    )


def _cmd_classify(args: argparse.Namespace) -> int:
    spec = _model_spec(args)
    x_max = _resolve(args, "x_max", 200.0)
    n_grid = _resolve(args, "grid", 64)
    model = build_model(spec)
    advisory = classify_empirical(model, x_max=x_max, n_grid=n_grid)
    if getattr(args, "empirical", False):
        result = advisory
        comments = [f"verdict: {result.verdict.value} (finite grid, advisory)"]
    else:
        if isinstance(spec, GaussianSpec):
            result = classify_gaussian(
                GaussianFamilyParams(spec.sigma, spec.tau, spec.m0), x_max, n_grid
            )
        else:
            result = classify_mixture(spec.alpha, model, x_max, n_grid)
        comments = [
            f"verdict: {result.verdict.value} (closed form, authoritative)",
            f"empirical verdict: {advisory.verdict.value} (finite grid, advisory)",
        ]
    if result.epsilon_estimate is not None:
        comments.append(f"epsilon_estimate: {result.epsilon_estimate!r}")
    print(result.verdict.value)
    csv_text = _evidence_csv(result, comments)
    print(csv_text, end="")
    out = _out_dir(args)
    if out is not None:
        manifest = _make_manifest(args, "classify", spec)
        manifest.add(out / "evidence.csv", csv_text)
        manifest.write(out)
    return EXIT_UNDETERMINED if result.verdict is Verdict.UNDETERMINED else EXIT_OK


def _cmd_path(args: argparse.Namespace) -> int:
    spec = _model_spec(args, noise_optional=True)
    model = build_model(spec)
    horizon = _resolve(args, "horizon", 1000)
    initial_r = _resolve(args, "initial_r", 0.0)
    path = consensus_path(model, initial_r=initial_r, horizon=horizon)
    comments = [f"initial_r: {initial_r!r}", f"absorbed: {path.absorbed}"]
    csv_text = _csv_lines(
        ("t", "r"), (_steps(len(path.values)), path.values), comments=comments
    )
    print(csv_text, end="")
    out = _out_dir(args)
    if out is not None:
        manifest = _make_manifest(args, "path", spec)
        manifest.add(out / "path.csv", csv_text)
        manifest.write(out)
    return EXIT_OK


_REGIME_ALIASES = {
    "g": "g",
    "b": "b",
    "0": "0",
    "f_g": "g",
    "f_b": "b",
    "f_0": "0",
    "fg": "g",
    "fb": "b",
    "f0": "0",
}


def _cmd_agree_prob(args: argparse.Namespace) -> int:
    regime_raw = _resolve(args, "regime")
    if regime_raw is None or regime_raw.lower() not in _REGIME_ALIASES:
        raise InvalidParameterError(
            f"--regime must be one of g/b/0 (or f_g/f_b/f_0), got {regime_raw!r}"
        )
    regime = _REGIME_ALIASES[regime_raw.lower()]
    spec = _model_spec(args, noise_optional=regime != "0")
    model = build_model(spec)
    horizon = _resolve(args, "horizon", 1000)
    initial_r = _resolve(args, "initial_r", 0.0)
    estimate = immediate_agreement_prob(
        model, regime, initial_r=initial_r, horizon=horizon
    )
    path = consensus_path(model, initial_r=initial_r, horizon=horizon)
    div = divergence_test(model, path, regime, "left")
    comments = [
        f"regime: {regime}",
        f"diverged: {'true' if estimate.diverged else 'false'}",
        f"verdict: {div.verdict.value}",
        f"lower: {estimate.lower!r}",
        f"upper: {estimate.upper!r}",
        f"truncated_product: {estimate.truncated_product!r}",
    ]
    csv_text = _csv_lines(
        ("t", "partial_sum"),
        (_steps(len(div.partial_sums)), div.partial_sums),
        comments=comments,
    )
    print(f"diverged: {'true' if estimate.diverged else 'false'}")
    print(csv_text, end="")
    out = _out_dir(args)
    if out is not None:
        manifest = _make_manifest(args, "agree-prob", spec)
        manifest.add(out / "partial_sums.csv", csv_text)
        manifest.write(out)
    return EXIT_OK


def _experiment_config(args: argparse.Namespace, spec) -> ExperimentConfig:
    # --stress switches the defaults to the long-horizon scale (takes
    # minutes); explicit size flags still win, and the smaller batches keep
    # the per-batch draw matrix within memory.
    stress = bool(getattr(args, "stress", False))
    return ExperimentConfig(
        model=spec,
        gamma=_resolve(args, "gamma", 0.5),
        horizon=_resolve(args, "horizon", 100_000 if stress else 2000),
        num_trajectories=_resolve(args, "trajectories", 10_000 if stress else 2000),
        omega=_resolve(args, "omega"),
        theta=_resolve(args, "theta"),
        initial_r=_resolve(args, "initial_r", 0.0),
        master_seed=_resolve(args, "seed", 0),
        record_traces=bool(_resolve(args, "traces", False)),
        batch_size=256 if stress else 1024,
        workers=_resolve(args, "workers", 1),
    )


def _rows_csv(rows: np.ndarray) -> str:
    header = rows.dtype.names
    return _csv_lines(header, [rows[name] for name in header])


def _trace_csv(trace) -> str:
    return _csv_lines(
        ("t", "action", "llr", "r_before", "q"),
        (_steps(len(trace.q)), trace.actions, trace.llrs, trace.r_before, trace.q),
    )


def _cmd_simulate(args: argparse.Namespace) -> int:
    spec = _model_spec(args)
    config = _experiment_config(args, spec)
    result = run_experiment(config)
    agg_text = json.dumps(result.aggregates, indent=2, sort_keys=True) + "\n"
    print(agg_text, end="")
    out = _out_dir(args)
    if out is not None:
        manifest = _make_manifest(args, "simulate", spec, config)
        manifest.add(out / "rows.csv", _rows_csv(result.rows))
        manifest.add(out / "aggregates.json", agg_text)
        if result.traces:
            for trace in result.traces:
                manifest.add_relative(
                    out, f"traces/traj_{trace.index:06d}.csv", _trace_csv(trace)
                )
        manifest.write(out)
    return EXIT_OK


def _cmd_same_variance(args: argparse.Namespace) -> int:
    sigma = _resolve(args, "sigma")
    if sigma is None:
        raise InvalidParameterError("same-variance needs --sigma")
    grid_raw = _resolve(args, "m0_grid", "0,0.25,0.5")
    try:
        m0_grid = [float(v) for v in str(grid_raw).split(",") if v.strip() != ""]
    except ValueError as exc:
        raise InvalidParameterError(f"bad --m0-grid: {grid_raw!r}") from exc
    table = same_variance_experiment(
        sigma=sigma,
        m0_grid=m0_grid,
        gamma=_resolve(args, "gamma", 0.5),
        horizon=_resolve(args, "horizon", 2000),
        num_trajectories=_resolve(args, "trajectories", 2000),
        master_seed=_resolve(args, "seed", 0),
        workers=_resolve(args, "workers", 1),
    )
    header = (
        "m0",
        "disagreement_rate",
        "mean_switch_count",
        "frac_switch_after_half",
        "median_q_final",
    )
    csv_text = _csv_lines(header, [[row[k] for row in table] for k in header])
    print(csv_text, end="")
    out = _out_dir(args)
    if out is not None:
        spec = GaussianSpec(sigma=sigma, tau=sigma, m0=0.0)
        manifest = _make_manifest(args, "same-variance", spec)
        manifest.config["m0_grid"] = m0_grid
        manifest.add(out / "same_variance.csv", csv_text)
        manifest.write(out)
    return EXIT_OK


def _cmd_observer_replay(args: argparse.Namespace) -> int:
    spec = _model_spec(args)
    model = build_model(spec)
    gamma = _resolve(args, "gamma", 0.5)
    initial_r = _resolve(args, "initial_r", 0.0)
    actions_file = _resolve(args, "actions_file")
    if actions_file is None:
        raise InvalidParameterError("observer-replay needs --actions-file")
    try:
        text = Path(actions_file).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidParameterError(f"cannot read actions file: {exc}") from exc
    actions = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        token = line.strip()
        if not token:
            continue
        if token.upper() == "G":
            actions.append("g")
        elif token.upper() == "B":
            actions.append("b")
        else:
            raise InvalidParameterError(
                f"line {line_no}: expected G or B, got {token!r}"
            )
    states = replay(model, gamma, initial_r, actions)
    columns = list(zip(*((s.t, s.q, s.log_odds) for s in states)))
    csv_text = _csv_lines(("t", "q", "log_odds"), columns)
    print(csv_text, end="")
    out = _out_dir(args)
    if out is not None:
        manifest = _make_manifest(args, "observer-replay", spec)
        manifest.add(out / "observer.csv", csv_text)
        manifest.write(out)
    return EXIT_OK


def _make_manifest(
    args: argparse.Namespace,
    command: str,
    spec,
    config: Optional[ExperimentConfig] = None,
) -> _Manifest:
    if config is not None:
        echo = {
            "model": spec_to_dict(config.model),
            "gamma": config.gamma,
            "horizon": config.horizon,
            "trajectories": config.num_trajectories,
            "omega": config.omega,
            "theta": config.theta,
            "initial_r": config.initial_r,
            "seed": config.master_seed,
            "traces": config.record_traces,
        }
        seed = config.master_seed
    else:
        echo = {"model": spec_to_dict(spec)}
        for key in ("gamma", "horizon", "initial_r", "regime", "x_max", "grid"):
            value = _resolve(args, key)
            if value is not None:
                echo[key] = value
        seed = _resolve(args, "seed")
    return _Manifest(
        command=command,
        config=echo,
        master_seed=seed,
        started_utc=datetime.now(timezone.utc).isoformat(),
    )


def config_from_manifest(manifest: dict) -> ExperimentConfig:
    """Rebuild the experiment configuration echoed in a simulate manifest."""
    echo = manifest["config"]
    return ExperimentConfig(
        model=spec_from_dict(echo["model"]),
        gamma=echo["gamma"],
        horizon=echo["horizon"],
        num_trajectories=echo["trajectories"],
        omega=echo["omega"],
        theta=echo["theta"],
        initial_r=echo["initial_r"],
        master_seed=echo["seed"],
        record_traces=echo["traces"],
    )


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sigma", type=float, help="informative signal sd")
    p.add_argument("--tau", type=float, help="uninformative signal sd")
    p.add_argument("--m0", type=float, help="uninformative signal mean (default 0)")
    p.add_argument(
        "--mixture",
        type=float,
        metavar="ALPHA",
        help="use mixture noise alpha*F_g + (1-alpha)*F_b instead of --tau/--m0",
    )


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat INI config file; flags override it")
    p.add_argument("--seed", type=int, help="master seed (default 0)")
    p.add_argument(
        "--out", help=f"output directory (default from ${OUT_DIR_ENV} if set)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="herdlearn", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="relative tail thickness of the noise law")
    _add_model_flags(p)
    _add_common_flags(p)
    p.add_argument("--x-max", dest="x_max", type=float, help="grid upper end")
    p.add_argument("--grid", type=int, help="grid size (default 64)")
    p.add_argument(
        "--empirical",
        action="store_true",
        help="let the finite-grid classifier decide (can return Undetermined)",
    )
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("path", help="deterministic all-G public-LLR path")
    _add_model_flags(p)
    _add_common_flags(p)
    p.add_argument("--horizon", type=int, help="path length (default 1000)")
    p.add_argument("--initial-r", dest="initial_r", type=float)
    p.set_defaults(func=_cmd_path)

    p = sub.add_parser("agree-prob", help="probability bracket for immediate agreement")
    _add_model_flags(p)
    _add_common_flags(p)
    p.add_argument("--regime", help="which conditional law: g, b or 0")
    p.add_argument("--horizon", type=int, help="truncation horizon (default 1000)")
    p.add_argument("--initial-r", dest="initial_r", type=float)
    p.set_defaults(func=_cmd_agree_prob)

    p = sub.add_parser("simulate", help="Monte Carlo trajectory experiment")
    _add_model_flags(p)
    _add_common_flags(p)
    p.add_argument("--gamma", type=float)
    p.add_argument("--horizon", type=int)
    p.add_argument("--trajectories", type=int)
    p.add_argument("--omega", type=int, choices=(0, 1))
    p.add_argument("--theta", choices=("g", "b"))
    p.add_argument("--initial-r", dest="initial_r", type=float)
    p.add_argument("--traces", action="store_const", const=True)
    p.add_argument("--workers", type=int)
    p.add_argument(
        "--stress",
        action="store_true",
        help="default to the long-horizon scale (T=1e5, N=1e4; takes minutes)",
    )
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("same-variance", help="noise-mean sweep at tau = sigma")
    _add_common_flags(p)
    p.add_argument("--sigma", type=float)
    p.add_argument("--m0-grid", dest="m0_grid", help="comma list, default 0,0.25,0.5")
    p.add_argument("--gamma", type=float)
    p.add_argument("--horizon", type=int)
    p.add_argument("--trajectories", type=int)
    p.add_argument("--workers", type=int)
    p.set_defaults(func=_cmd_same_variance)

    p = sub.add_parser("observer-replay", help="run the filter over recorded actions")
    _add_model_flags(p)
    _add_common_flags(p)
    p.add_argument("--gamma", type=float)
    p.add_argument("--initial-r", dest="initial_r", type=float)
    p.add_argument("--actions-file", dest="actions_file", help="one G/B per line")
    p.set_defaults(func=_cmd_observer_replay)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args._file_values = _load_config_file(args.config) if args.config else {}
        return args.func(args)
    except InvalidParameterError as exc:
        print(f"herdlearn: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
