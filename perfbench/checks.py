"""Correctness checks on the outputs of one herdlearn command.

``observe`` reduces a command's outputs to what ``expected.json`` pins:
digests, sampled values, labels and aggregate statistics.  ``check`` runs
the invariants that hold at every seed, then compares the observation with
the values pinned at the default seed:

- Gaussian ``simulate``: the SHA-256 of rows.csv, aggregates.json and the
  traces must equal the pinned digests (default seed only).
- Every ``simulate``: the herd-correctness and late-switch fractions must lie
  within 5 standard errors of the pinned ones (every seed; this is the only
  pinned check on the mixture run, whose random stream may change once).
- ``path``, ``agree-prob`` and ``classify`` do not depend on the seed: their
  CSVs are parsed by column name and compared with the pinned values at
  relative tolerance 1e-9 (every seed).  Extra columns are allowed.
- ``observer-replay``: the same numeric comparison, at the default seed only,
  since the action file is generated from the seed.

Invariants include: every file the manifest lists exists with the listed
digest; stdout repeats the written file; rows.csv is consistent with
aggregates.json and with the traces; every traced action obeys the decision
rule ``g iff llr >= -r_before``; observer q matches its log-odds.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

REL_TOL = 1e-9
ABS_TOL = 1e-12
STAT_SIGMAS = 5.0
SAMPLES = 16
# Probabilities may leave [0, 1] by rounding: the observer sums two posterior
# weights, which can give 1.0000000000000002.
Q_SLACK = 1e-15
# Outcomes recorded in the pinned and observed statistics of a simulate run.
PROPORTIONS = ("herd_correctness_rate", "frac_switch_after_half")
ROW_COLUMNS = (
    "index", "omega", "theta", "final_action", "switch_count",
    "last_switch_time", "q_final", "q_log_odds", "absorbed",
)


class CheckError(Exception):
    """An output violates an invariant."""


def flag(argv, name: str, cast=str, default=None):
    return cast(argv[argv.index(name) + 1]) if name in argv else default


def seed_independent(argv) -> bool:
    return argv[0] in ("path", "agree-prob", "classify")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_digests(out_dir: Path) -> dict:
    """SHA-256 of every output file except the manifest, by relative path."""
    return {
        p.relative_to(out_dir).as_posix(): _sha(p.read_bytes())
        for p in sorted(out_dir.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }


def fingerprint(digests: dict, stdout: str) -> str:
    lines = [f"{path} {sha}" for path, sha in sorted(digests.items())]
    return _sha(("\n".join(lines) + "\nstdout " + _sha(stdout.encode())).encode())


def manifest_errors(argv, out_dir: Path, digests: dict) -> list:
    try:
        manifest = json.loads((out_dir / "manifest.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"manifest unreadable: {exc}"]
    errors = []
    listed = {o["path"]: o["sha256"] for o in manifest.get("outputs", [])}
    if listed != digests:
        bad = sorted(set(listed.items()) ^ set(digests.items()))[:3]
        errors.append(f"manifest digests disagree with the files: {bad}")
    if manifest.get("command") != argv[0]:
        errors.append(f"manifest command {manifest.get('command')!r} != {argv[0]!r}")
    if argv[0] == "simulate":
        config = manifest.get("config", {})
        for key, name in (("seed", "--seed"), ("horizon", "--horizon"),
                          ("trajectories", "--trajectories")):
            if config.get(key) != flag(argv, name, int):
                errors.append(f"manifest config {key}={config.get(key)!r} != {name}")
    return errors


def read_csv(text: str):
    """(comments, header, columns) of a CSV with leading '# key: value' lines."""
    lines = text.splitlines()
    comments = {}
    while lines and lines[0].startswith("# "):
        key, _, value = lines.pop(0)[2:].partition(": ")
        comments[key] = value
    if not lines:
        raise CheckError("CSV has no header")
    header = lines[0].split(",")
    columns = {name: [] for name in header}
    for line_no, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(header):
            raise CheckError(f"CSV line {line_no} has {len(cells)} cells, header {len(header)}")
        for name, cell in zip(header, cells):
            columns[name].append(cell)
    return comments, header, columns


def _floats(columns: dict, name: str) -> list:
    if name not in columns:
        raise CheckError(f"missing column {name!r}")
    return [float(v) for v in columns[name]]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _consecutive(ts: list, first: int, count: int, what: str) -> None:
    _require(len(ts) == count, f"{what}: {len(ts)} rows, expected {count}")
    _require([int(t) for t in ts] == list(range(first, first + count)),
             f"{what}: t is not {first}..{first + count - 1}")


def _sample(values: list, prefix: str) -> dict:
    n = len(values)
    picks = sorted(set(range(0, n, max(1, n // SAMPLES))) | {n - 1}) if n else []
    return {f"{prefix}@{i}": values[i] for i in picks}


def _probability(q: float, what: str) -> None:
    _require(-Q_SLACK <= q <= 1.0 + Q_SLACK, f"{what}: q = {q!r} outside [0, 1]")


def _nondecreasing(values: list, what: str) -> None:
    _require(all(b >= a for a, b in zip(values, values[1:])), f"{what} decreases")


# --- simulate ---------------------------------------------------------------

def _check_rows(rows: dict, n: int, horizon: int) -> None:
    for name in ROW_COLUMNS:
        _require(name in rows, f"rows.csv lacks column {name!r}")
    _consecutive(rows["index"], 0, n, "rows.csv index")
    for i in range(n):
        switches, last = int(rows["switch_count"][i]), int(rows["last_switch_time"][i])
        q = float(rows["q_final"][i])
        _require(rows["omega"][i] in ("0", "1"), f"row {i}: bad omega")
        _require(rows["theta"][i] in ("g", "b") and rows["final_action"][i] in ("g", "b"),
                 f"row {i}: bad theta or final_action")
        _require(0 <= switches <= horizon - 1 and 0 <= last <= horizon,
                 f"row {i}: switch count or time out of range")
        _require((switches == 0) == (last == 0), f"row {i}: switch count and time disagree")
        _probability(q, f"row {i}")
        _require(rows["absorbed"][i] in ("True", "False"), f"row {i}: bad absorbed")


def _check_aggregates(agg: dict, rows: dict, n: int, horizon: int) -> None:
    switch_times = [int(v) for v in rows["last_switch_time"]]
    recomputed = {
        "n": n,
        "horizon": horizon,
        "herd_correctness_rate": sum(
            a == t for a, t in zip(rows["final_action"], rows["theta"])) / n,
        "frac_switch_after_half": sum(s > horizon / 2 for s in switch_times) / n,
        "mean_switch_count": sum(int(v) for v in rows["switch_count"]) / n,
        "n_absorbed": sum(v == "True" for v in rows["absorbed"]),
    }
    for key, value in recomputed.items():
        _require(key in agg and math.isclose(agg[key], value, rel_tol=1e-12),
                 f"aggregates.json {key}={agg.get(key)!r}, rows.csv gives {value!r}")


def _check_traces(out_dir: Path, rows: dict, n: int, horizon: int) -> None:
    files = sorted((out_dir / "traces").glob("traj_*.csv"))
    _require(len(files) == n, f"{len(files)} trace files, expected {n}")
    for i, path in enumerate(files):
        _require(path.name == f"traj_{i:06d}.csv", f"unexpected trace file {path.name}")
        _, _, cols = read_csv(path.read_text())
        _consecutive(cols["t"], 1, horizon, path.name)
        actions = cols["action"]
        llrs, r_before, qs = (_floats(cols, c) for c in ("llr", "r_before", "q"))
        _require(r_before[0] == 0.0, f"{path.name}: first r_before is not the initial 0")
        for t in range(horizon):
            _require(actions[t] == ("g" if llrs[t] >= -r_before[t] else "b"),
                     f"{path.name} t={t + 1}: action breaks the decision rule")
            _probability(qs[t], f"{path.name} t={t + 1}")
        switches = sum(a != b for a, b in zip(actions, actions[1:]))
        _require(actions[-1] == rows["final_action"][i], f"{path.name}: final action != rows.csv")
        _require(switches == int(rows["switch_count"][i]), f"{path.name}: switches != rows.csv")


def _simulate(argv, out_dir: Path, stdout: str, full: bool) -> dict:
    agg_text = (out_dir / "aggregates.json").read_text()
    agg = json.loads(agg_text)
    rows_bytes = (out_dir / "rows.csv").read_bytes()
    digests = {"rows.csv": _sha(rows_bytes), "aggregates.json": _sha(agg_text.encode())}
    traced = "--traces" in argv
    if traced:
        digests["traces"] = fingerprint(file_digests(out_dir / "traces"), "")
    if full:
        n, horizon = flag(argv, "--trajectories", int), flag(argv, "--horizon", int)
        _require(stdout == agg_text, "stdout differs from aggregates.json")
        _, _, rows = read_csv(rows_bytes.decode())
        _check_rows(rows, n, horizon)
        _check_aggregates(agg, rows, n, horizon)
        if traced:
            _check_traces(out_dir, rows, n, horizon)
    stats = {key: agg[key] for key in PROPORTIONS}
    stats["n"] = agg["n"]
    return {"digests": digests, "stats": stats}


# --- analysis commands --------------------------------------------------------

def _observer(argv, out_dir: Path, stdout: str, full: bool) -> dict:
    text = (out_dir / "observer.csv").read_text()
    _, _, cols = read_csv(text)
    qs, log_odds = _floats(cols, "q"), _floats(cols, "log_odds")
    if full:
        actions = [a for a in Path(flag(argv, "--actions-file")).read_text().split() if a]
        _require(stdout == text, "stdout differs from observer.csv")
        _consecutive(cols["t"], 1, len(actions) + 1, "observer.csv")
        _require(qs[0] == 0.5 and log_odds[0] == 0.0, "observer does not start at the prior")
        for t, (q, lo) in enumerate(zip(qs, log_odds), start=1):
            _probability(q, f"observer t={t}")
            if abs(lo) < 700:
                _require(abs(q - 1.0 / (1.0 + math.exp(-lo))) <= 1e-9,
                         f"observer t={t}: q disagrees with log_odds")
    values = {**_sample(qs, "q"), **_sample(log_odds, "log_odds")}
    return {"labels": {"rows": str(len(qs))}, "values": values}


def _path(argv, out_dir: Path, stdout: str, full: bool) -> dict:
    text = (out_dir / "path.csv").read_text()
    comments, _, cols = read_csv(text)
    rs = _floats(cols, "r")
    if full:
        _require(stdout == text, "stdout differs from path.csv")
        _consecutive(cols["t"], 1, flag(argv, "--horizon", int), "path.csv")
        _require(rs[0] == 0.0, "path does not start at the initial LLR 0")
        _nondecreasing(rs, "all-G path")
    return {"labels": {"absorbed": comments.get("absorbed")}, "values": _sample(rs, "r")}


def _agree(argv, out_dir: Path, stdout: str, full: bool) -> dict:
    text = (out_dir / "partial_sums.csv").read_text()
    comments, _, cols = read_csv(text)
    sums = _floats(cols, "partial_sum")
    bracket = {k: float(comments[k]) for k in ("lower", "upper", "truncated_product")}
    if full:
        _require(stdout == f"diverged: {comments['diverged']}\n" + text,
                 "stdout differs from partial_sums.csv")
        _consecutive(cols["t"], 1, flag(argv, "--horizon", int), "partial_sums.csv")
        _require(sums[0] >= 0.0, "negative partial sum")
        _nondecreasing(sums, "partial sums")
        _require(0.0 <= bracket["lower"] <= bracket["upper"] <= 1.0, f"bad bracket {bracket}")
    labels = {k: comments.get(k) for k in ("diverged", "verdict")}
    return {"labels": labels, "values": {**bracket, **_sample(sums, "partial_sum")}}


def _classify(argv, out_dir: Path, stdout: str, full: bool) -> dict:
    text = (out_dir / "evidence.csv").read_text()
    comments, _, cols = read_csv(text)
    names = ("x", "log_L_b", "log_R_g", "log_L_g", "log_R_b")
    columns = {name: _floats(cols, name) for name in names}
    verdict = stdout.partition("\n")[0]
    if full:
        _require(stdout == verdict + "\n" + text, "stdout differs from evidence.csv")
        _require(comments.get("verdict", "").split(" ")[0] == verdict,
                 "stdout verdict differs from evidence.csv")
        _require(verdict in ("Fatter", "Thinner", "Neither"), f"verdict {verdict!r}")
        xs = columns["x"]
        _require(len(xs) == 64 and xs[0] == 1.0 and abs(xs[-1] - 200.0) < 1e-9,
                 "evidence grid is not 64 points from 1 to 200")
    values = {}
    for name in names:
        values.update(_sample(columns[name], name))
    return {"labels": {"verdict": verdict}, "values": values}


_OBSERVERS = {
    "simulate": _simulate,
    "observer-replay": _observer,
    "path": _path,
    "agree-prob": _agree,
    "classify": _classify,
}


def observe(argv, out_dir: Path, stdout: str) -> dict:
    """What expected.json pins for one command's outputs."""
    return _OBSERVERS[argv[0]](argv, out_dir, stdout, full=False)


def _compare(observed: dict, pinned: dict, at_pinned_seed: bool, argv) -> list:
    errors = []
    if at_pinned_seed and "--mixture" not in argv:
        for key, sha in pinned.get("digests", {}).items():
            if observed["digests"].get(key) != sha:
                errors.append(f"{key} digest differs from the pinned one")
    if at_pinned_seed or seed_independent(argv):
        for key, label in pinned.get("labels", {}).items():
            if observed["labels"].get(key) != label:
                errors.append(f"{key} is {observed['labels'].get(key)!r}, pinned {label!r}")
        for key, value in pinned.get("values", {}).items():
            got = observed["values"].get(key)
            if got is None or not math.isclose(got, value, rel_tol=REL_TOL, abs_tol=ABS_TOL):
                errors.append(f"{key} is {got!r}, pinned {value!r}")
    stats = pinned.get("stats")
    if stats:
        n = observed["stats"]["n"]
        for key in PROPORTIONS:
            p = stats[key]
            tol = STAT_SIGMAS * math.sqrt(max(p * (1 - p), 1 / n) * (1 / n + 1 / stats["n"]))
            if abs(observed["stats"][key] - p) > tol:
                errors.append(f"{key}={observed['stats'][key]} is not within {tol:.4f} of {p}")
    return errors


def check(argv, out_dir: Path, stdout: str, digests: dict, pinned: dict,
          at_pinned_seed: bool) -> list:
    """Every error found in one command's outputs; empty when they are correct."""
    errors = manifest_errors(argv, out_dir, digests)
    try:
        observed = _OBSERVERS[argv[0]](argv, out_dir, stdout, full=True)
    except (CheckError, OSError, ValueError, KeyError, IndexError) as exc:
        return errors + [f"{type(exc).__name__}: {exc}"]
    return errors + _compare(observed, pinned, at_pinned_seed, argv)
