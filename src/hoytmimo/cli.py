"""Command-line interface.

Subcommands: density, capacity, degradation, simulate, validate,
correlations.  Outputs are plot-ready CSV (RFC-4180, '.' decimals) or
strict JSON (RFC 8259) with a ``schema_version`` field; a non-finite
number, such as tau at q = 1, is written there as the string "inf", "-inf"
or "nan".  No plotting here.

Power flags are always dB (P = 10^(dB/10)); ``--power-linear`` switches
the given values to linear units.  Exit codes: 0 success, 1 validation
failure, 2 usage error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys

import numpy as np
from numpy.linalg import LinAlgError

from .capacity import capacity_sweep
from .ensemble import (
    DEFAULT_CONTROL,
    ChannelConfig,
    NumericalConsistencyError,
    SeriesControl,
    SeriesTruncationError,
    correlation_fn,
    crossover_tau,
    density_mp,
    level_density,
)
from .montecarlo import empirical_density
from .validation import run_checks
from .quadrature import QuadratureError

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

COMMANDS = ("density", "capacity", "degradation", "simulate", "validate", "correlations")


class UsageError(ValueError):
    pass


def _q_from_tau(tau: float) -> float:
    if tau < 0.0:
        raise UsageError("tau must be >= 0")
    if math.isinf(tau):
        return 1.0
    e = math.exp(-tau)
    return math.sqrt((1.0 - e) / (1.0 + e))


def _parse_grid(spec: str) -> np.ndarray:
    try:
        lo, hi, pts = spec.split(":")
        lo, hi, pts = float(lo), float(hi), int(pts)
    except ValueError as exc:
        raise UsageError(f"bad grid spec {spec!r}; expected min:max:points") from exc
    if not math.isfinite(lo) or not math.isfinite(hi):
        raise UsageError("grid ends must be finite")
    if pts < 2 or not hi > lo:
        raise UsageError("grid needs max > min and points >= 2")
    return np.linspace(lo, hi, pts)


def _parse_range(spec: str) -> tuple[float, float]:
    try:
        lo, hi = (float(t) for t in spec.split(":"))
    except ValueError as exc:
        raise UsageError(f"bad range spec {spec!r}; expected lo:hi") from exc
    if not math.isfinite(lo) or not math.isfinite(hi):
        raise UsageError("range ends must be finite")
    if not hi > lo:
        raise UsageError("range needs hi > lo")
    return lo, hi


def _parse_float_list(spec: str) -> list[float]:
    try:
        return [float(tok) for tok in spec.split(",") if tok != ""]
    except ValueError as exc:
        raise UsageError(f"bad numeric list {spec!r}") from exc


def _resolve_q(args) -> float:
    has_q = getattr(args, "q", None) is not None
    has_tau = getattr(args, "tau", None) is not None
    if has_q == has_tau:
        raise UsageError("provide exactly one of --q or --tau")
    if has_q:
        if not 0.0 <= args.q <= 1.0:
            raise UsageError("q must lie in [0, 1]")
        return args.q
    return _q_from_tau(args.tau)


def _powers_db(args) -> list[float]:
    """The --power-db values in dB, converted from linear with --power-linear."""
    if args.power_db is None:
        raise UsageError("--power-db is required")
    powers = _parse_float_list(args.power_db)
    if args.power_linear and any(not p > 0.0 for p in powers):
        raise UsageError("linear powers must be > 0")
    return [10.0 * math.log10(p) for p in powers] if args.power_linear else powers


def _config(args) -> ChannelConfig:
    if args.nt is None or args.nr is None:
        raise UsageError("--nt and --nr are required (flags or config file)")
    return ChannelConfig(nt=args.nt, nr=args.nr, omega=args.omega)


def _control(args) -> SeriesControl:
    return SeriesControl(rel_tol=args.rel_tol, max_terms=args.max_terms)


def _finite_json(value):
    """value with every non-finite float, however deep, as the string "inf", "-inf" or "nan".

    RFC 8259 has no token for them (Python's ``Infinity`` is not JSON);
    ``float()`` reads the strings back.
    """
    if isinstance(value, float):
        return value if math.isfinite(value) else repr(float(value))
    if isinstance(value, dict):
        return {k: _finite_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_json(v) for v in value]
    return value


def _json_text(doc) -> str:
    """doc as strict JSON, walked by _finite_json only when it holds a non-finite float."""
    try:
        return _indented(doc)
    except ValueError:
        return _indented(_finite_json(doc))


def _indented(doc) -> str:
    """json.dumps(doc, indent=2, allow_nan=False), byte for byte, its row lists encoded in C.

    With indent set, json.dumps runs the pure-Python encoder.  Each
    top-level value that is a list of flat objects (the rows) goes instead
    to the C encoder, with NUL and SOH as item and key separators, and is
    laid out by str.replace; a cell that is a list of numbers (the points
    of ``correlations``) is laid out by one regular expression.  JSON
    escapes every control character inside strings, so a raw NUL or SOH is
    always a separator, and NUL between "}" and "{" always the boundary
    between two rows.
    """
    if type(doc) is not dict or not doc or not all(type(k) is str for k in doc):
        return json.dumps(doc, indent=2, allow_nan=False)
    items = (f"  {json.dumps(k)}: {_indented_value(v)}" for k, v in doc.items())
    return "{\n" + ",\n".join(items) + "\n}"


# A row cell that is a list of numbers, true, false or null, as the C
# encoder writes it: SOH, then a bracket with no string or container inside.
_FLAT_LIST = re.compile(r'\x01\[([^][{"]*)\]')


def _flat_list_layout(match) -> str:
    """A _FLAT_LIST cell laid out as json.dumps(..., indent=2) lays out a row cell."""
    items = match[1]
    if not items:
        return ": []"
    return ": [\n        " + items.replace("\0", ",\n        ") + "\n      ]"


def _indented_value(value) -> str:
    """value as json.dumps(..., indent=2) lays it out one level deep."""
    if type(value) is list and value and all(type(r) is dict and r for r in value):
        text = json.dumps(value, separators=("\0", "\1"), allow_nan=False)
        text = _FLAT_LIST.sub(_flat_list_layout, text)
        if "\1{" not in text and "\1[" not in text:  # no row holds another container
            body = text[2:-2].replace("}\0{", "\n    },\n    {\n      ")
            body = body.replace("\0", ",\n      ").replace("\1", ": ")
            return "[\n    {\n      " + body + "\n    }\n  ]"
    return json.dumps(value, indent=2, allow_nan=False).replace("\n", "\n  ")


def _emit_json(path: str | None, doc: dict) -> None:
    """doc, schema_version first, as one strict JSON document in path or on stdout."""
    text = _json_text({"schema_version": SCHEMA_VERSION, **doc})
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _write_rows(args, fieldnames: list[str], rows: list[dict], meta: dict) -> None:
    """Emit rows as CSV (with sidecar metadata) or as one JSON document.

    A CSV cell holding a list is the ';'-join of its items' repr.
    """
    if args.format == "json":
        _emit_json(args.output, {**meta, "rows": rows})
        return
    if args.format != "csv":  # only a config file gets past the parser's choices
        raise UsageError(f"unknown format {args.format!r}; expected csv or json")
    out = open(args.output, "w", newline="") if args.output else sys.stdout
    try:
        writer = csv.DictWriter(out, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(
            {k: ";".join(map(repr, v)) if isinstance(v, list) else v for k, v in row.items()}
            for row in rows
        )
    finally:
        if args.output:
            out.close()
    if args.output:
        _emit_json(args.output + ".meta.json", meta)


def _meta_config(cfg: ChannelConfig, q: float | None = None) -> dict:
    meta = {"nt": cfg.nt, "nr": cfg.nr, "omega": cfg.omega}
    if q is not None:
        meta["q"] = q
        meta["tau"] = crossover_tau(q)
    return meta


# ---------------------------------------------------------------------------
# subcommands


def cmd_density(args) -> int:
    cfg = _config(args)
    q = _resolve_q(args)
    ctrl = _control(args)
    if args.grid is None:
        raise UsageError("--grid is required")
    grid = _parse_grid(args.grid)

    hist = None
    if args.simulate:
        hist = empirical_density(
            cfg,
            q,
            samples=args.samples,
            bins=len(grid) - 1,
            value_range=(float(grid[0]), float(grid[-1])),
            seed=args.seed,
        )
        lam = 0.5 * (hist.bin_edges[:-1] + hist.bin_edges[1:])
    else:
        lam = grid

    n = cfg.n
    rho = (level_density(lam, cfg, q, ctrl) / n).tolist()
    fieldnames = ["lambda", "rho_analytic"]
    rows = [{"lambda": float(v), "rho_analytic": r} for v, r in zip(lam, rho)]
    if args.asymptotic:
        fieldnames.append("rho_mp")
        for row, mp in zip(rows, (density_mp(lam, cfg) / n).tolist()):
            row["rho_mp"] = mp
    if hist is not None:
        fieldnames.extend(["rho_empirical", "stderr"])
        for row, d, se in zip(rows, hist.normalized_values, hist.normalized_stderr):
            row["rho_empirical"] = float(d)
            row["stderr"] = float(se)
    meta = {
        "command": "density",
        "config": _meta_config(cfg, q),
        "seed": args.seed if args.simulate else None,
        "samples": args.samples if args.simulate else None,
    }
    _write_rows(args, fieldnames, rows, meta)
    return EXIT_OK


def cmd_capacity(args) -> int:
    cfg = _config(args)
    ctrl = _control(args)
    if (args.q is None) == (args.tau is None):
        raise UsageError("provide exactly one of --q or --tau")
    if args.q is not None:
        qs = _parse_float_list(args.q)
        if any(not 0.0 <= q <= 1.0 for q in qs):
            raise UsageError("q values must lie in [0, 1]")
    else:
        qs = [_q_from_tau(t) for t in _parse_float_list(args.tau)]
    results = capacity_sweep(cfg, qs, _powers_db(args), ctrl)
    rows = [
        {
            "q": r.q,
            "power_db": r.power_db,
            "capacity": r.capacity,
            "est_abs_error": r.est_abs_error,
        }
        for r in results
    ]
    meta = {"command": "capacity", "config": _meta_config(cfg)}
    _write_rows(args, ["q", "power_db", "capacity", "est_abs_error"], rows, meta)
    return EXIT_OK


def cmd_degradation(args) -> int:
    """1 - C(0)/C(1) per power, from one sweep over q = 0 and 1 (each row as degradation gives it)."""
    cfg = _config(args)
    powers = _powers_db(args)
    caps = capacity_sweep(cfg, [0.0, 1.0], powers, _control(args))  # q outer
    rows = [
        {"power_db": pdb, "degradation": 1.0 - c0.capacity / c1.capacity}
        for pdb, c0, c1 in zip(powers, caps, caps[len(powers) :])
    ]
    meta = {"command": "degradation", "config": _meta_config(cfg)}
    _write_rows(args, ["power_db", "degradation"], rows, meta)
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = _config(args)
    q = _resolve_q(args)
    value_range = _parse_range(args.range) if args.range else None
    hist = empirical_density(
        cfg, q, samples=args.samples, bins=args.bins, value_range=value_range, seed=args.seed
    )
    rows = []
    for i in range(len(hist.counts)):
        rows.append(
            {
                "bin_lo": float(hist.bin_edges[i]),
                "bin_hi": float(hist.bin_edges[i + 1]),
                "density": float(hist.normalized_values[i]),
                "stderr": float(hist.normalized_stderr[i]),
            }
        )
    meta = {
        "command": "simulate",
        "config": _meta_config(cfg, q),
        "seed": args.seed,
        "samples": args.samples,
        "eigenvalues_in_range": int(np.sum(hist.counts)),
        "observed_trace_moment": hist.eigenvalue_sum / args.samples,
        "expected_trace_moment": cfg.nt * cfg.nr * cfg.omega,
    }
    _write_rows(args, ["bin_lo", "bin_hi", "density", "stderr"], rows, meta)
    return EXIT_OK


def _read_point_sets(path: str) -> list[list[float]]:
    """The point sets of a --points-file: a list of lists of JSON numbers, bare or under "points"."""
    with open(path) as fh:
        doc = json.load(fh)
    point_sets = doc.get("points") if isinstance(doc, dict) else doc
    if point_sets is None:
        raise UsageError(f"{path} has no 'points' list")
    if not isinstance(point_sets, list) or not all(
        isinstance(pts, list)
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in pts)
        for pts in point_sets
    ):
        raise UsageError(f"{path}: the points must be a list of lists of numbers")
    try:
        return [[float(v) for v in pts] for pts in point_sets]
    except OverflowError as exc:  # an integer past the float range
        raise UsageError(f"{path}: {exc}") from exc


def cmd_correlations(args) -> int:
    cfg = _config(args)
    q = _resolve_q(args)
    ctrl = _control(args)
    if args.points_file:
        point_sets = _read_point_sets(args.points_file)
    elif args.points:
        point_sets = [
            _parse_float_list(group) for group in args.points.split(";") if group
        ]
    else:
        raise UsageError("provide --points or --points-file")
    by_order = {}  # set indices by order, in input order
    for k, pts in enumerate(point_sets):
        if len(pts) > cfg.n:
            raise UsageError(
                f"correlation order {len(pts)} exceeds N = {cfg.n}"
            )
        by_order.setdefault(len(pts), []).append(k)
    r_n = [0.0] * len(point_sets)
    for ks in by_order.values():  # one stacked call per order
        for k, rn in zip(ks, correlation_fn([point_sets[k] for k in ks], cfg, q, ctrl).tolist()):
            r_n[k] = rn
    # the two-point repulsion bounds R_1(x) R_1(y), from one array call
    rho = level_density(np.ravel([pts for pts in point_sets if len(pts) == 2]), cfg, q, ctrl)
    bounds = iter((rho[0::2] * rho[1::2]).tolist())
    rows = []
    for pts, rn in zip(point_sets, r_n):
        row = {"n": len(pts), "points": pts, "r_n": rn}
        if len(pts) == 2:
            row["repulsion_violated"] = bool(rn > next(bounds) * (1.0 + 1e-9))
        rows.append(row)
    meta = {"command": "correlations", "config": _meta_config(cfg, q)}
    _write_rows(args, ["n", "points", "r_n", "repulsion_violated"], rows, meta)
    return EXIT_OK


# ---------------------------------------------------------------------------
# validate


def cmd_validate(args) -> int:
    checks = run_checks(_control(args), quick=args.quick)
    passed = all(c["passed"] for c in checks)
    _emit_json(args.output, {"command": "validate", "quick": args.quick, "passed": passed,
                             "checks": checks})
    return EXIT_OK if passed else EXIT_VALIDATION


# ---------------------------------------------------------------------------
# parser


def _add_common(p: argparse.ArgumentParser, antennas: bool = True, series: bool = True,
                formats: tuple[str, ...] = ("csv", "json")) -> None:
    if antennas:
        p.add_argument("--nt", type=int, help="transmit antennas")
        p.add_argument("--nr", type=int, help="receive antennas")
        p.add_argument("--omega", type=float, default=1.0, help="signal power (default 1)")
    if series:
        p.add_argument("--rel-tol", type=float, default=DEFAULT_CONTROL.rel_tol,
                       help="series truncation tolerance")
        p.add_argument("--max-terms", type=int, default=DEFAULT_CONTROL.max_terms,
                       help="series term budget")
    p.add_argument("--output", help="output path (default stdout)")
    p.add_argument("--format", choices=formats, default=formats[0])


def _add_q_tau(p: argparse.ArgumentParser, as_list: bool = False) -> None:
    group = p.add_mutually_exclusive_group()
    if as_list:
        group.add_argument("--q", type=str, help="Hoyt parameter(s), comma separated")
        group.add_argument("--tau", type=str, help="crossover parameter(s), comma separated")
    else:
        group.add_argument("--q", type=float, help="Hoyt parameter in [0, 1]")
        group.add_argument("--tau", type=float, help="crossover parameter >= 0")


def build_parser(
    command: str | None = None,
) -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its subcommand parsers by name.

    A known command builds only that subcommand's parser; None builds all
    six, which top-level help and the top-level errors list.
    """
    parser = argparse.ArgumentParser(
        prog="hoytmimo",
        description="Eigenvalue statistics and ergodic capacity of Hoyt-faded MIMO channels",
    )
    parser.add_argument("--config", help="key=value defaults file (flags win)")
    # one subcommand's parser still names all six in the usage line; all six
    # keep argparse's default, which says "argument command" in its errors
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    subparsers = {}

    def add(name: str, help: str) -> argparse.ArgumentParser | None:
        if command not in (None, name):
            return None
        subparsers[name] = sub.add_parser(name, help=help)
        return subparsers[name]

    if p := add("density", "analytic marginal eigenvalue density"):
        _add_common(p)
        _add_q_tau(p)
        p.add_argument("--grid", help="lambda grid as min:max:points")
        p.add_argument("--asymptotic", action="store_true", help="add the large-N density column")
        p.add_argument("--simulate", action="store_true", help="add Monte Carlo columns")
        p.add_argument("--samples", type=int, default=100000)
        p.add_argument("--seed", type=int, default=0)
        p.set_defaults(func=cmd_density)

    if p := add("capacity", "ergodic capacity table"):
        _add_common(p)
        _add_q_tau(p, as_list=True)
        p.add_argument("--power-db", help="power value(s), comma separated")
        p.add_argument("--power-linear", action="store_true", help="interpret powers as linear")
        p.set_defaults(func=cmd_capacity)

    if p := add("degradation", "capacity loss from q=1 to q=0"):
        _add_common(p)
        p.add_argument("--power-db", help="power value(s), comma separated")
        p.add_argument("--power-linear", action="store_true")
        p.set_defaults(func=cmd_degradation)

    if p := add("simulate", "Monte Carlo eigenvalue histogram"):
        _add_common(p, series=False)  # sampling sums no series
        _add_q_tau(p)
        p.add_argument("--samples", type=int, default=100000)
        p.add_argument("--bins", type=int, default=40)
        p.add_argument("--range", help="histogram range lo:hi (default 0 to 1.2x MP edge)")
        p.add_argument("--seed", type=int, default=0)
        p.set_defaults(func=cmd_simulate)

    if p := add("validate", "run the cross-module consistency suite"):
        _add_common(p, antennas=False, formats=("json",))  # one JSON document
        p.add_argument("--quick", action="store_true", help="fast subset (< 10 s)")
        p.set_defaults(func=cmd_validate)

    if p := add("correlations", "n-level correlation functions"):
        _add_common(p)
        _add_q_tau(p)
        p.add_argument("--points", help="point sets, e.g. '1.0,2.0;0.5'")
        p.add_argument("--points-file", help="JSON file with a 'points' list of lists")
        p.set_defaults(func=cmd_correlations)
    return parser, subparsers


def _pre_parse(argv: list[str]) -> tuple[str | None, str | None]:
    """The --config value ('--config PATH' or '--config=PATH') and the command.

    The command is the first argument left over once --config and its value
    are taken out, if that names a subcommand; anything else before it, such
    as --help or an unknown flag, gives None.
    """
    pre = argparse.ArgumentParser(prog="hoytmimo", add_help=False)
    pre.add_argument("--config")
    known, rest = pre.parse_known_args(argv)
    return known.config, rest[0] if rest and rest[0] in COMMANDS else None


def _apply_config_file(path: str, subparsers: dict[str, argparse.ArgumentParser]) -> None:
    """Load key=value defaults into each built subcommand that has the option; flags still win."""
    defaults = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"bad config line: {line!r}")
            key, val = line.split("=", 1)
            defaults[key.strip().replace("-", "_")] = val.strip()
    for p in subparsers.values():
        known = vars(p.parse_args([]))  # every option's dest and default
        for key, val in defaults.items():
            if key not in known or key == "func":
                continue
            if isinstance(known[key], bool):
                val = val.lower() in ("1", "true", "yes")
            # argparse converts a string default with the option's type
            p.set_defaults(**{key: val})


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        config, command = _pre_parse(argv)
        parser, subparsers = build_parser(command)
        if config is not None:
            _apply_config_file(config, subparsers)
        args = parser.parse_args(argv)
        return args.func(args)
    # LinAlgError subclasses ValueError, so numerical failures are caught first
    except (SeriesTruncationError, NumericalConsistencyError, QuadratureError, LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:  # UsageError and invalid values met past the parser
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # downstream consumer (head, less) closed the pipe; not an error
        try:
            sys.stdout.close()
        except OSError:
            pass
        return EXIT_OK
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
