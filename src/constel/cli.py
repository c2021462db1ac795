"""Command-line surface.

Subcommands: classify, enumerate, firmament, abc-scan, vojta-gap,
minimal-profiles.  Output is TSV (with a single `#` header line) or JSONL;
rationals print as p/q, floats with nine decimals, and repeated runs --
including runs with different worker counts -- produce identical bytes.

Exit codes: 0 success, 1 internal error, 2 parse/config error or
unreadable file, 3 violated mathematical precondition, 4 run refused by a
resource cap.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import curves, firmaments, heights, softpoints
from .arith import parse_multiplicity
from .errors import MathDomainError, ParseError, RayUnsupportedError, ResourceLimitError


def _fmt(value) -> str:
    # plain ints first, by exact type: they fill nearly every cell
    if type(value) is int:
        return str(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.9f}"
    return str(value)


def _json_value(value):
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        return round(value, 9)
    return value


def _emit(rows, columns, fmt) -> list[str]:
    if fmt == "jsonl":
        return [
            json.dumps({k: _json_value(v) for k, v in zip(columns, row)}, separators=(",", ":"))
            for row in rows
        ]
    lines = ["# " + "\t".join(columns)]
    lines.extend("\t".join(_fmt(v) for v in row) for row in rows)
    return lines


def _parse_delta(text: str) -> softpoints.DeltaSupport3:
    parts = text.split(",")
    if len(parts) != 3:
        raise ParseError(f"delta {text!r}: expected three comma-separated multiplicities")
    try:
        return softpoints.DeltaSupport3(*map(parse_multiplicity, parts))
    except ValueError:
        raise ParseError(f"delta {text!r}: multiplicities are integers >= 1 or inf") from None


def _read_text(path: str, what: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {what}: {exc}") from None


def _parse_ray(tok: str) -> tuple[int, ...]:
    t = tok.strip()
    if t.startswith("(") and t.endswith(")"):
        t = t[1:-1]
    try:
        return tuple(int(p) for p in t.split(","))
    except ValueError:
        raise ParseError(f"bad ray {tok!r}") from None


def _cmd_classify(args) -> tuple[list[str], int]:
    texts = list(args.profiles)
    if args.file:
        texts.extend(ln for ln in _read_text(args.file, "profile file").splitlines() if ln.strip())
    if not texts:
        raise ParseError("no profiles given (pass them as arguments or via --file)")
    rows = []
    for text in texts:
        profile = curves.parse_profile(text)
        cls = curves.classify(profile)
        rows.append(
            (
                curves.profile_text(profile),
                cls.degree,
                cls.kappa.value,
                curves.arithmetic_prediction(profile).value,
            )
        )
    return _emit(rows, ("profile", "degree", "kappa", "prediction"), args.format), 0


def _cmd_enumerate(args) -> tuple[list[str], int]:
    delta = _parse_delta(args.delta)
    rows = [
        (a, c, c - a, True, max(abs(a), abs(c - a), c), rad)
        for c, a, rad in softpoints._soft_rows(delta, args.max, args.positive, args.workers)
    ]
    return _emit(rows, ("a", "c", "b", "soft", "M", "rad"), args.format), 0


def _cmd_firmament(args) -> tuple[list[str], int]:
    firm = firmaments.from_text(_read_text(args.file, "firmament file"))
    rays = [_parse_ray(tok) for tok in args.rays.split(";") if tok.strip()]
    if not rays:
        raise ParseError("no rays given")
    for ray in rays:
        if len(ray) != firm.dimension:
            raise ParseError(f"ray {ray} has dimension {len(ray)}, file has {firm.dimension}")
    rows = []
    failed = False
    for ray in rays:
        label = "(" + ",".join(map(str, ray)) + ")"
        try:
            m = firmaments.multiplicity_at(firm, ray)
        except RayUnsupportedError:
            rows.append((label, "unsupported", "-"))
            failed = True
        else:
            rows.append((label, m, 1 - Fraction(1, m)))
    return _emit(rows, ("ray", "multiplicity", "delta"), args.format), (3 if failed else 0)


def _cmd_abc_scan(args) -> tuple[list[str], int]:
    try:
        threshold = Fraction(args.min_quality)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad quality threshold {args.min_quality!r}") from None
    hits = heights.scan_abc(args.max_c, threshold, workers=args.workers)
    rows = [(h.a, h.b, h.c, h.rad, h.quality) for h in hits]
    return _emit(rows, ("a", "b", "c", "rad", "quality"), args.format), 0


def _cmd_vojta_gap(args) -> tuple[list[str], int]:
    events = heights.scan_vojta_gap(args.eps_prime, args.max_c)
    rows = [(e.a, e.b, e.c, e.gap) for e in events]
    return _emit(rows, ("a", "b", "c", "gap"), args.format), 0


def _cmd_minimal_profiles(args) -> tuple[list[str], int]:
    profiles = curves.minimal_general_type_profiles(args.max_marks, args.max_mult)
    rows = []
    for mults in profiles:
        profile = curves.MultiplicityProfile.of(0, mults)
        rows.append((",".join(map(str, mults)), curves.constellation_degree(profile)))
    return _emit(rows, ("multiplicities", "degree"), args.format), 0


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(
        prog="constel",
        description="constellation curves, firmaments, soft integral points and abc instrumentation",
    )
    parser.add_argument("--config", help="key=value defaults file; flags override")
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = {}

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--config", help=argparse.SUPPRESS)
        p.add_argument("--format", choices=("tsv", "jsonl"), default="tsv")
        p.set_defaults(func=func)
        subparsers[name] = p
        return p

    p = add("classify", _cmd_classify, help="classify constellation curve profiles")
    p.add_argument("profiles", nargs="*", help="profiles like g=0;m=2,3,7")
    p.add_argument("--file", help="file with one profile per line")

    p = add("enumerate", _cmd_enumerate, help="enumerate soft integral points")
    p.add_argument("--delta", required=True, help="three multiplicities, e.g. 2,2,2")
    p.add_argument("--max", type=int, required=True, help="height bound")
    p.add_argument("--positive", action="store_true", help="restrict to 0 < a < c")
    p.add_argument("--workers", type=int, default=1)

    p = add("firmament", _cmd_firmament, help="multiplicity table of a firmament file")
    p.add_argument("file", help="firmament file")
    p.add_argument("--rays", required=True, help="semicolon-separated rays, e.g. (1,0);(0,1)")

    p = add("abc-scan", _cmd_abc_scan, help="quality-ordered scan of abc triples")
    p.add_argument("--max-c", type=int, required=True)
    p.add_argument("--min-quality", default="1.0")
    p.add_argument("--workers", type=int, default=1)

    p = add("vojta-gap", _cmd_vojta_gap, help="running-max gap trace on the abc line")
    p.add_argument("--eps-prime", type=float, required=True)
    p.add_argument("--max-c", type=int, required=True)

    p = add("minimal-profiles", _cmd_minimal_profiles, help="minimal general-type profiles")
    p.add_argument("--max-marks", type=int, default=5)
    p.add_argument("--max-mult", type=int, default=7)

    return parser, subparsers


def _load_config(path: str) -> dict[str, str]:
    cfg = {}
    for no, ln in enumerate(_read_text(path, "config file").splitlines(), start=1):
        s = ln.strip()
        if not s or s.startswith("#"):
            continue
        key, sep, value = s.partition("=")
        if not sep:
            raise ParseError(f"config line {no}: expected key=value, got {s!r}")
        cfg[key.strip()] = value.strip()
    return cfg


_SWITCH_VALUES = {
    **dict.fromkeys(("1", "true", "yes", "on"), True),
    **dict.fromkeys(("0", "false", "no", "off"), False),
}


def _apply_config(cfg: dict, subparsers: dict) -> None:
    known = set()
    for p in subparsers.values():
        # help is not a setting, and a list positional is not one string
        actions = {a.dest: a for a in p._actions if a.dest != "help" and a.nargs != "*"}
        known.update(a.replace("_", "-") for a in actions)
        for key, raw in cfg.items():
            dest = key.replace("-", "_")
            action = actions.get(dest)
            if action is None:
                continue
            try:
                if isinstance(action, argparse._StoreTrueAction):
                    value = _SWITCH_VALUES[raw.lower()]
                else:
                    value = raw if action.type is None else action.type(raw)
                if action.choices is not None and value not in action.choices:
                    raise ValueError(raw)
            except (KeyError, ValueError):
                raise ParseError(f"config key {key!r}: bad value {raw!r}") from None
            p.set_defaults(**{dest: value})
            action.required = False  # the config satisfied it
    unknown = [k for k in cfg if k.replace("_", "-") not in known and k not in ("config",)]
    if unknown:
        raise ParseError(f"unknown config keys: {', '.join(sorted(unknown))}")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subparsers = _build_parser()
    try:
        # pre-scan for --config so its values become parser defaults
        cfg_path = None
        for i, tok in enumerate(argv):
            if tok == "--config" and i + 1 < len(argv):
                cfg_path = argv[i + 1]
            elif tok.startswith("--config="):
                cfg_path = tok.split("=", 1)[1]
        if cfg_path:
            _apply_config(_load_config(cfg_path), subparsers)
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
        lines, code = args.func(args)
        if lines:
            sys.stdout.write("\n".join(lines) + "\n")
        return code
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MathDomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # a fault of the program, not of its input
        import traceback  # only a failing run pays for the import

        traceback.print_exc()
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
