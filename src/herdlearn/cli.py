"""Command-line front end.

Subcommands: classify, path, agree-prob, simulate, same-variance,
observer-replay.  Every run is pure given its resolved configuration and
seed.  Each command returns its exit code, its model spec, its stdout text
and its output files as (relative path, text) pairs, and prints and writes
nothing itself; ``main`` prints the text and, when an output directory is
given (``--out`` or $HERDLEARN_OUT_DIR), writes the files and a manifest
listing each with its SHA-256 digest.

Configuration can come from a flat INI file (sections [model], [run],
[output]); it accepts exactly the subcommand's flags, by destination name
(x_max, initial_r, ...), with true/false for flags that take no value.
Command-line flags win over file values.  The manifest's config echoes every
setting that can change the outputs, defaults included, so a config file
holding that echo, with master_seed as seed, reruns the command to the same
digests.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import locale  # noqa: F401  else argparse's first parser imports it inside a command
import os
import shutil
import sys
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .beliefs import REGIMES, GaussianSpec, InvalidParameterError, MixtureSpec, build_model
from .consensus import (
    consensus_path,
    immediate_agreement_prob,
)
from .montecarlo import (
    ExperimentConfig,
    ExperimentResourceError,
    run_experiment,
    same_variance_experiment,
)
from .observer import history_log_liks, observer_init, posterior_columns
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


# The cell of each bool, indexed by its byte.
_BOOL_CELLS = np.array(["False", "True"], dtype=object)
_DIGITS = tuple("0123456789")


def _cells(column: np.ndarray) -> list:
    """Locale-independent CSV cells of a column that is not float: ``str``
    of each value.  A column of dtype object holds its cells already, as
    ``str``.  Float columns go through ``_float_columns`` instead.

    Bools, and integers spanning at most half as many values as the column
    has rows (such as 0/1 flags and small counts), are formatted once per
    value in a table of cells, which each row then indexes; a run of
    consecutive nonnegative integers, such as ``t``, a ``str`` per ten
    values; any other integer column a ``str`` per row.
    """
    kind = column.dtype.kind
    if kind in "UO":
        return column.tolist()
    if kind == "b":
        return _BOOL_CELLS[column.view(np.uint8)].tolist()
    n = len(column)
    if kind in "iu" and n:
        first, last = int(column[0]), int(column[-1])
        # The span is at least the distance between the first and last values,
        # so a column such as 1..n skips the passes for its least and greatest.
        if 2 * (abs(last - first) + 1) <= n:
            lo, hi = int(column.min()), int(column.max())
            if 2 * (hi - lo + 1) <= n:
                table = np.array(list(map(str, range(lo, hi + 1))), dtype=object)
                # Offsets from lo, computed modulo 2**64: exact, because each is
                # below the column's length.
                return table[column.astype(np.uint64) - np.uint64(lo % 2**64)].tolist()
        elif 0 <= first == last - n + 1 and (np.diff(column) == 1).all():
            # Each ten's quotient, "" for 0, joined with each last digit.
            tens = (str(q) if q else "" for q in range(first // 10, last // 10 + 1))
            return [p + d for p in tens for d in _DIGITS][first % 10 : first % 10 + n]
    return list(map(str, column.tolist()))


def _float_columns(columns: Sequence[np.ndarray]) -> list:
    """The cells of each float column, from one ``_float_cells`` call for
    all of them.

    A column whose consecutive values repeat, such as converged partial
    sums, formats each run of equal values once.  Runs compare the values'
    bits, so 0.0 and -0.0 stay apart.  Runs are found in one vectorized
    pass; they are used only when there are at most half as many runs as
    values, because spreading the cells over the runs costs more than
    formatting each value when most runs are a single value long.
    """
    # Where each run starts, or None to format every value.
    starts = []
    for column in columns:
        bits = column.view(f"i{column.itemsize}")
        changed = bits[1:] != bits[:-1]
        if 2 * (np.count_nonzero(changed) + 1) > len(column):
            starts.append(None)
        else:
            starts.append(np.concatenate(([0], np.flatnonzero(changed) + 1)))
    values = [c if s is None else c[s] for c, s in zip(columns, starts)]
    if not values:
        return []
    cells = _float_cells(values[0] if len(values) == 1 else np.concatenate(values))
    out, hi = [], 0
    for column, s, v in zip(columns, starts, values):
        lo, hi = hi, hi + len(v)
        part = cells[lo:hi]
        if s is not None:
            part = np.repeat(np.array(part, dtype=object), np.diff(s, append=len(column)))
            part = part.tolist()
        out.append(part)
    return out


# From this many float values on, ``_float_cells`` formats them all at once.
# On a 2-vCPU x86-64 host the kernel took, against a ``repr`` per value, 1.4x
# the time at 256 values, 1.0x at 512, 0.7x at 1024 and 0.6x at 2048 when
# called in a loop, as on the blocks of a long file; a single call after a
# command's other work took 1.3x at 512 and about 1.0x at 1024.
FLOAT_KERNEL_CUTOVER = 512


def _float_cells(values: np.ndarray) -> list:
    """The cell of each float value: its ``repr``, an empty cell for NaN.

    Below ``FLOAT_KERNEL_CUTOVER`` values each cell is a ``repr`` call;
    from there on ``_shortest.cells`` computes them all at once (Schubfach
    on numpy arrays), which costs more per call and less per value.  The
    bytes are those of ``repr`` either way.
    """
    if len(values) >= FLOAT_KERNEL_CUTOVER:
        # Imported here: only the commands that use it compile it.
        from . import _shortest

        return _shortest.cells(values)
    cells = list(map(repr, values.tolist()))
    for i in np.flatnonzero(np.isnan(values)).tolist():
        cells[i] = ""
    return cells


def _csv_lines(
    header: Sequence[str], columns: Sequence, comments: Sequence[str] = ()
) -> str:
    """CSV text from equal-length columns, after ``# `` comment lines.  The
    float columns of each block of rows are formatted together."""
    columns = [np.asarray(c) for c in columns]
    buf = io.StringIO()
    for c in comments:
        buf.write(f"# {c}\n")
    buf.write(",".join(header) + "\n")
    for lo in range(0, len(columns[0]), CSV_BLOCK_ROWS):
        block = [c[lo : lo + CSV_BLOCK_ROWS] for c in columns]
        floats = iter(_float_columns([c for c in block if c.dtype.kind == "f"]))
        cells = [next(floats) if c.dtype.kind == "f" else _cells(c) for c in block]
        buf.write("\n".join(map(",".join, zip(*cells))) + "\n")
    return buf.getvalue()


@dataclass
class _Manifest:
    command: str
    config: dict
    master_seed: Optional[int]
    started_utc: str
    outputs: list = field(default_factory=list)
    # The directories ``add_relative`` has made, so that it makes each once.
    made: set = field(default_factory=set)

    def add(self, path: Path, content: str) -> None:
        """Kept only because ``perfbench/tracer.py`` wraps it by name."""
        self.add_relative(path.parent, path.name, content)

    def add_relative(self, root: Path, rel: str, content: str) -> None:
        path = root / rel
        if path.parent not in self.made:
            path.parent.mkdir(parents=True, exist_ok=True)
            self.made.add(path.parent)
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
        (out_dir / "manifest.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )


def _model_spec(args: argparse.Namespace, noise_optional: bool = False):
    """Model spec from flags/config.

    Commands that only use the informative pair (the all-G path and the
    agreement products for regimes g/b) may omit the noise law; a
    placeholder tau = 2*sigma is then filled in and never evaluated, but
    the given m0 is still validated and echoed.  --mixture replaces --tau
    and --m0, so it may not come with either.
    """
    sigma, tau = args.sigma, args.tau
    if sigma is None:
        raise InvalidParameterError("a model needs --sigma")
    if args.mixture is not None:
        # ``!=`` also rejects a NaN m0.
        if tau is not None or args.m0 != 0.0:
            raise InvalidParameterError(
                "--mixture replaces --tau and --m0; give one or the other"
            )
        return MixtureSpec(sigma=sigma, alpha=args.mixture)
    if tau is None:
        if not noise_optional:
            raise InvalidParameterError(
                "a Gaussian model needs --tau (or use --mixture)"
            )
        tau = 2.0 * sigma
    return GaussianSpec(sigma=sigma, tau=tau, m0=args.m0)


def _steps(n: int) -> np.ndarray:
    """The 1-based ``t`` column of an n-row file."""
    return np.arange(1, n + 1)


def _cmd_classify(args: argparse.Namespace) -> tuple:
    spec = _model_spec(args)
    advisory = classify_empirical(build_model(spec), x_max=args.x_max, n_grid=args.grid)
    if args.empirical:
        result = advisory
        comments = [f"verdict: {result.verdict.value} (finite grid, advisory)"]
    else:
        rule = classify_gaussian if isinstance(spec, GaussianSpec) else classify_mixture
        result = rule(spec)
        comments = [
            f"verdict: {result.verdict.value} (closed form, authoritative)",
            f"empirical verdict: {advisory.verdict.value} (finite grid, advisory)",
        ]
    if result.epsilon_estimate is not None:
        comments.append(f"epsilon_estimate: {result.epsilon_estimate!r}")
    csv_text = _csv_lines(
        TailClassification.EVIDENCE_COLUMNS, advisory.evidence.T, comments=comments
    )
    code = EXIT_UNDETERMINED if result.verdict is Verdict.UNDETERMINED else EXIT_OK
    stdout = f"{result.verdict.value}\n{csv_text}"
    return code, spec, stdout, [("evidence.csv", csv_text)]


def _cmd_path(args: argparse.Namespace) -> tuple:
    spec = _model_spec(args, noise_optional=True)
    model = build_model(spec)
    path = consensus_path(model, initial_r=args.initial_r, horizon=args.horizon)
    comments = [f"initial_r: {args.initial_r!r}", f"absorbed: {path.absorbed}"]
    csv_text = _csv_lines(
        ("t", "r"), (_steps(len(path.values)), path.values), comments=comments
    )
    return EXIT_OK, spec, csv_text, [("path.csv", csv_text)]


# Each regime, also spelled with an "f" or "f_" prefix (the F_g, F_b, F_0
# laws); matched in lower case.
_REGIME_ALIASES = {prefix + r: r for r in REGIMES for prefix in ("", "f", "f_")}


def _cmd_agree_prob(args: argparse.Namespace) -> tuple:
    regime_raw = args.regime
    if regime_raw is None or regime_raw.lower() not in _REGIME_ALIASES:
        raise InvalidParameterError(
            f"--regime must be one of g/b/0 (or f_g/f_b/f_0), got {regime_raw!r}"
        )
    regime = _REGIME_ALIASES[regime_raw.lower()]
    spec = _model_spec(args, noise_optional=regime != "0")
    model = build_model(spec)
    estimate = immediate_agreement_prob(
        model, regime, initial_r=args.initial_r, horizon=args.horizon
    )
    div = estimate.divergence
    diverged = f"diverged: {'true' if estimate.diverged else 'false'}"
    comments = [
        f"regime: {regime}",
        diverged,
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
    return EXIT_OK, spec, f"{diverged}\n{csv_text}", [("partial_sums.csv", csv_text)]


def _experiment_config(args: argparse.Namespace, spec) -> ExperimentConfig:
    # --stress switches the size defaults to the long-horizon scale (takes
    # minutes); explicit size flags still win.  The sizes are resolved into
    # ``args`` so that the manifest echoes the ones that ran.
    if args.horizon is None:
        args.horizon = 100_000 if args.stress else 2000
    if args.trajectories is None:
        args.trajectories = 10_000 if args.stress else 2000
    return ExperimentConfig(
        model=spec,
        gamma=args.gamma,
        horizon=args.horizon,
        num_trajectories=args.trajectories,
        omega=args.omega,
        theta=args.theta,
        initial_r=args.initial_r,
        master_seed=args.seed,
        record_traces=args.traces,
        workers=args.workers,
    )


def _rows_csv(rows: np.ndarray) -> str:
    header = rows.dtype.names
    return _csv_lines(header, [rows[name] for name in header])


def _trace_csv(trace, t: np.ndarray) -> str:
    """One trajectory's trace file.  ``t`` holds the cells of its ``t``
    column as an object array, so every trace of a run shares one
    formatting of it."""
    return _csv_lines(
        ("t", "action", "llr", "r_before", "q"),
        (t, trace.actions, trace.llrs, trace.r_before, trace.q),
    )


def _cmd_simulate(args: argparse.Namespace) -> tuple:
    spec = _model_spec(args)
    result = run_experiment(_experiment_config(args, spec))
    agg_text = json.dumps(result.aggregates, indent=2, sort_keys=True) + "\n"

    # A generator, so that files are formatted only when they are written,
    # and one trace CSV at a time.
    def files():
        yield "rows.csv", _rows_csv(result.rows)
        yield "aggregates.json", agg_text
        if result.traces:
            t = np.array(_cells(_steps(result.config.horizon)), dtype=object)
            for trace in result.traces:
                yield f"traces/traj_{trace.index:06d}.csv", _trace_csv(trace, t)

    return EXIT_OK, spec, agg_text, files()


def _cmd_same_variance(args: argparse.Namespace) -> tuple:
    sigma = args.sigma
    if sigma is None:
        raise InvalidParameterError("same-variance needs --sigma")
    try:
        m0_grid = [float(v) for v in args.m0_grid.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise InvalidParameterError(f"bad --m0-grid: {args.m0_grid!r}") from exc
    table = same_variance_experiment(
        sigma=sigma,
        m0_grid=m0_grid,
        gamma=args.gamma,
        horizon=args.horizon,
        num_trajectories=args.trajectories,
        master_seed=args.seed,
        workers=args.workers,
    )
    header = tuple(table[0])  # the grid is never empty
    csv_text = _csv_lines(header, [[row[k] for row in table] for k in header])
    spec = GaussianSpec(sigma=sigma, tau=sigma, m0=0.0)
    return EXIT_OK, spec, csv_text, [("same_variance.csv", csv_text)]


def _parse_actions(text: str) -> np.ndarray:
    """The actions of an actions file, True for G: one G or B per line, in
    either case, with blank lines and surrounding whitespace ignored.

    A file of nothing but single letters between line breaks is read in a
    few whole-array passes over its bytes; any other goes line by line,
    which also names the first bad line.
    """
    raw = np.frombuffer(text.encode(), dtype=np.uint8)
    breaks = (raw == ord("\n")) | (raw == ord("\r"))
    letters = raw[~breaks] | 0x20  # ASCII lower case
    took_g = letters == ord("g")
    if np.all(took_g | (letters == ord("b"))) and not np.any(~breaks[1:] & ~breaks[:-1]):
        return took_g
    took = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        token = line.strip()
        if not token:
            continue
        if token.upper() not in ("G", "B"):
            raise InvalidParameterError(f"line {line_no}: expected G or B, got {token!r}")
        took.append(token.upper() == "G")
    return np.array(took, dtype=bool)


def _cmd_observer_replay(args: argparse.Namespace) -> tuple:
    spec = _model_spec(args)
    model = build_model(spec)
    gamma, initial_r = args.gamma, args.initial_r
    if args.actions_file is None:
        raise InvalidParameterError("observer-replay needs --actions-file")
    try:
        text = Path(args.actions_file).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidParameterError(f"cannot read actions file: {exc}") from exc
    took_g = _parse_actions(text)
    log_liks, _ = history_log_liks(model, observer_init(gamma, initial_r), took_g)
    q, log_odds = posterior_columns(log_liks, gamma)
    csv_text = _csv_lines(("t", "q", "log_odds"), (_steps(len(q)), q, log_odds))
    return EXIT_OK, spec, csv_text, [("observer.csv", csv_text)]


# Namespace entries the manifest does not echo: the model flags (echoed as the
# spec that ran), plumbing, the --stress preset (its sizes are echoed) and
# --workers (results are bit-identical across worker counts).
_NOT_ECHOED = frozenset(
    ("sigma", "tau", "m0", "mixture", "command", "func", "config", "out", "stress",
     "workers")
)


def _make_manifest(args: argparse.Namespace, spec, started_utc: str) -> _Manifest:
    echo = {k: v for k, v in vars(args).items() if k not in _NOT_ECHOED}
    return _Manifest(
        command=args.command,
        config={"model": {"kind": spec.kind, **asdict(spec)}, **echo},
        master_seed=args.seed,
        started_utc=started_utc,
    )


# Each flag's ``add_argument`` keywords.  argparse derives each destination
# from the flag (--x-max gives x_max).
_FLAGS = {
    "--sigma": dict(type=float, help="informative signal sd"),
    "--tau": dict(type=float, help="uninformative signal sd"),
    "--m0": dict(type=float, default=0.0, help="uninformative signal mean"),
    "--mixture": dict(type=float, metavar="ALPHA", help="use mixture noise "
                      "alpha*F_g + (1-alpha)*F_b instead of --tau/--m0"),
    "--config": dict(help="flat INI config file; flags override it"),
    "--seed": dict(type=int, default=0, help="master seed"),
    "--out": dict(help=f"output directory (else ${OUT_DIR_ENV}, if set)"),
    "--x-max": dict(type=float, default=200.0, help="grid upper end"),
    "--grid": dict(type=int, default=64, help="grid size"),
    "--empirical": dict(action="store_true", help="let the finite-grid classifier "
                        "decide (can return Undetermined)"),
    "--regime": dict(help="which conditional law: g, b or 0"),
    "--gamma": dict(type=float, default=0.5),
    "--horizon": dict(type=int),
    "--trajectories": dict(type=int),
    "--omega": dict(type=int, choices=(0, 1)),
    "--theta": dict(choices=("g", "b")),
    "--initial-r": dict(type=float, default=0.0),
    "--traces": dict(action="store_true"),
    "--workers": dict(type=int, default=1),
    "--stress": dict(action="store_true", help="size the run at the long-horizon "
                     "scale unless --horizon or --trajectories is given (takes minutes)"),
    "--m0-grid": dict(default="0,0.25,0.5", help="comma list"),
    "--actions-file": dict(help="one G/B per line"),
}
_MODEL = ("--sigma", "--tau", "--m0", "--mixture")
_RUN = ("--config", "--seed", "--out")

# name: (function, help, its flags in the order the parser lists them, the
# keywords where its flag differs from ``_FLAGS``'s), in the order the parser
# lists the commands.
_COMMANDS = {
    "classify": (_cmd_classify, "relative tail thickness of the noise law",
                 (*_MODEL, *_RUN, "--x-max", "--grid", "--empirical"), {}),
    "path": (_cmd_path, "deterministic all-G public-LLR path",
             (*_MODEL, *_RUN, "--horizon", "--initial-r"),
             {"--horizon": dict(default=1000, help="path length")}),
    "agree-prob": (_cmd_agree_prob, "probability bracket for immediate agreement",
                   (*_MODEL, *_RUN, "--regime", "--horizon", "--initial-r"),
                   {"--horizon": dict(default=1000, help="truncation horizon")}),
    "simulate": (_cmd_simulate, "Monte Carlo trajectory experiment",
                 (*_MODEL, *_RUN, "--gamma", "--horizon", "--trajectories", "--omega",
                  "--theta", "--initial-r", "--traces", "--workers", "--stress"), {}),
    "same-variance": (_cmd_same_variance, "noise-mean sweep at tau = sigma",
                      (*_RUN, "--sigma", "--m0-grid", "--gamma", "--horizon",
                       "--trajectories", "--workers"),
                      {"--sigma": dict(help=None), "--horizon": dict(default=2000),
                       "--trajectories": dict(default=2000)}),
    "observer-replay": (_cmd_observer_replay, "run the filter over recorded actions",
                        (*_MODEL, *_RUN, "--gamma", "--initial-r", "--actions-file"), {}),
}


def build_parser(only: Optional[str] = None) -> argparse.ArgumentParser:
    """The CLI parser; ``parser.commands`` maps each subcommand to its parser.

    With ``only``, a subcommand's name, only that subcommand's parser is
    built: it parses an argv that starts with the name, and prints every
    help text and error message such an argv can reach, exactly as the full
    parser does.  The one message of the top-level parser it can reach,
    unrecognized arguments, shows the usage line, so its list of commands
    is spelled out as the full parser lists them.
    """
    # argparse builds a help formatter in every add_argument, and each would
    # look up the terminal width; look it up once, as HelpFormatter does.
    formatter = functools.partial(
        argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2
    )
    parser = _Parser(prog="herdlearn", description=__doc__, formatter_class=formatter)
    parser.add_argument("--version", action="version", version=__version__)
    metavar = None if only is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    parser.commands = {}
    for name, (func, help, flags, differ) in _COMMANDS.items():
        if only not in (None, name):
            continue
        p = parser.commands[name] = sub.add_parser(
            name, help=help, formatter_class=formatter
        )
        p.set_defaults(func=func)
        for flag in flags:
            p.add_argument(flag, **{**_FLAGS[flag], **differ.get(flag, {})})
    return parser


def _file_defaults(parser: argparse.ArgumentParser, args: argparse.Namespace) -> dict:
    """The config file's values for the subcommand's own flags.

    The file is flat INI: sections only group keys, and a later section's
    value wins.  The values become parser defaults, so argparse converts
    them with each flag's type and flags given on the command line still
    win.  Flags that take no value read true/false; keys the subcommand does
    not declare are ignored, so that one file can serve several commands.
    """
    import configparser  # only --config runs load it
    path, config, defaults = args.config, configparser.ConfigParser(), {}
    try:
        if not config.read(path, encoding="utf-8"):
            raise InvalidParameterError(f"config file not found: {path}")
        items = (item for section in config.sections() for item in config.items(section))
        flat = {key.replace("-", "_"): value for key, value in items}
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise InvalidParameterError(f"bad config file {path}: {exc}") from exc
    for key, value in flat.items():
        if key in ("command", "func", "config") or not hasattr(args, key):
            continue
        if isinstance(getattr(args, key), bool):
            state = configparser.ConfigParser.BOOLEAN_STATES.get(value.lower())
            if state is None:
                parser.error(f"bad config value for {key}: {value!r}")
            value = state
        defaults[key] = value
    return defaults


@contextlib.contextmanager
def _writing_outputs():
    """Report an ``OSError`` as an unusable output directory."""
    try:
        yield
    except OSError as exc:
        raise InvalidParameterError(f"cannot write outputs: {exc}") from exc


def _make_dirs(path: Path) -> list:
    """Make the directory ``path`` and its missing parents; return the
    directories that did not exist before, deepest first."""
    missing = []
    for d in (path, *path.parents):
        if d.exists():
            break
        missing.append(d)
    path.mkdir(parents=True, exist_ok=True)
    return missing


def _remove_empty(dirs: list) -> None:
    """Remove each of ``dirs``, deepest first, up to the first not empty."""
    for d in dirs:
        try:
            d.rmdir()
        except OSError:
            return


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the command ``argv`` names (``sys.argv[1:]`` when it is None) and
    return its exit code.

    When the first word is a command's name, only that command's parser is
    built (see ``build_parser``); any other argv, such as ``-h``,
    ``--version``, a misspelt command or none, gets the full parser.
    """
    words = sys.argv[1:] if argv is None else argv
    parser = build_parser(words[0] if words and words[0] in _COMMANDS else None)
    args = parser.parse_args(argv)
    made = []
    try:
        if args.config:
            command = parser.commands[args.command]
            command.set_defaults(**_file_defaults(command, args))
            args = parser.parse_args(argv)
        out = os.environ.get(OUT_DIR_ENV) if args.out is None else args.out
        if out:
            # Made before the command runs, so that an unusable directory
            # is reported at once, not after all the work.
            out = Path(out)
            with _writing_outputs():
                made = _make_dirs(out)
        started_utc = datetime.now(timezone.utc).isoformat()
        code, spec, stdout, files = args.func(args)
        print(stdout, end="")
        if out:
            manifest = _make_manifest(args, spec, started_utc)
            manifest.made.add(out)
            with _writing_outputs():
                for rel, text in files:
                    manifest.add_relative(out, rel, text)
                manifest.write(out)
        return code
    except (InvalidParameterError, ExperimentResourceError, MemoryError) as exc:
        print(f"herdlearn: error: {str(exc) or 'out of memory'}", file=sys.stderr)
        # A usage error leaves no directory behind that this run made and
        # left empty.
        _remove_empty(made)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
