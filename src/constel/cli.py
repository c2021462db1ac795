"""Command-line surface.

Subcommands: classify, enumerate, firmament, abc-scan, vojta-gap,
minimal-profiles.  Output is TSV (with a single `#` header line) or JSONL;
rationals print as p/q, floats with nine decimals, and repeated runs --
including runs with different worker counts -- produce identical bytes.

Every command has one shape: its _cmd_* function parses and checks its
input, builds what it needs and returns (blocks, exit code), where blocks
is an iterable of line lists that main writes as they come.  So every
refusal comes before the first byte of stdout.  enumerate, with one
worker and c as the outer role of its scan, makes its blocks as they are
read; the other commands return one block.

Exit codes: 0 success, 1 internal error (one in mid-stream leaves the
lines already written), 2 parse/config error or unreadable file, 3
violated mathematical precondition, 4 run refused by a resource cap, 141
stdout's reader closed the pipe before the last line.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from itertools import chain

# only arith and errors load with the CLI: each command imports the module it
# runs, so a run loads no layer it does not use
from .arith import parse_multiplicity
from .errors import MathDomainError, ParseError, RayUnsupportedError, ResourceLimitError


def _parse_delta(text: str):
    from . import softpoints

    parts = text.split(",")
    if len(parts) != 3:
        raise ParseError(f"delta {text!r}: expected three comma-separated multiplicities")
    try:
        return softpoints.DeltaSupport3(*map(parse_multiplicity, parts))
    except ValueError:
        raise ParseError(f"delta {text!r}: multiplicities are integers >= 1 or inf") from None


def _read_text(path: str, what: str) -> str:
    try:
        with open(path) as f:
            return f.read()
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


def _cmd_classify(args):
    from . import curves

    texts = list(args.profiles)
    if args.file:
        texts.extend(ln for ln in _read_text(args.file, "profile file").splitlines() if ln.strip())
    if not texts:
        raise ParseError("no profiles given (pass them as arguments or via --file)")
    rows = []
    for text in texts:
        profile = curves.parse_profile(text)
        cls = curves.classify(profile)
        prediction = curves.arithmetic_prediction(profile)
        rows.append((curves.profile_text(profile), cls.degree, cls.kappa.value, prediction.value))
    # every cell is text or a Fraction, so a JSON string that needs no escape
    if args.format == "jsonl":
        return [['{"profile":"%s","degree":"%s","kappa":"%s","prediction":"%s"}' % r for r in rows]], 0
    return [["# profile\tdegree\tkappa\tprediction", *("%s\t%s\t%s\t%s" % r for r in rows)]], 0


def _cmd_enumerate(args):
    from . import softpoints

    delta = _parse_delta(args.delta)
    blocks = softpoints._soft_rows(delta, args.max, args.positive, args.workers)
    # one f-string a row, for the columns a, c, b, soft, M, rad; each block
    # of rows becomes its lines only when main reaches it
    if args.format == "jsonl":
        return (
            [
                f'{{"a":{a},"c":{c},"b":{c - a},"soft":true,"M":{max(abs(a), abs(c - a), c)},"rad":{rad}}}'
                for c, a, rad in rows
            ]
            for rows in blocks
        ), 0
    lines = (
        [f"{a}\t{c}\t{c - a}\ttrue\t{max(abs(a), abs(c - a), c)}\t{rad}" for c, a, rad in rows]
        for rows in blocks
    )
    return chain([["# a\tc\tb\tsoft\tM\trad"]], lines), 0


def _cmd_firmament(args):
    from . import firmaments
    from .monoids import _vector_text

    firm = firmaments.from_text(_read_text(args.file, "firmament file"))
    rays = [_parse_ray(tok) for tok in args.rays.split(";") if tok.strip()]
    if not rays:
        raise ParseError("no rays given")
    for ray in rays:
        if len(ray) != firm.dimension:
            raise ParseError(f"ray {ray} has dimension {len(ray)}, file has {firm.dimension}")
    # a supported ray has an int multiplicity and a Fraction delta
    if args.format == "jsonl":
        lines = []
        row = '{"ray":"%s","multiplicity":%d,"delta":"%s"}'
        unsupported = '{"ray":"%s","multiplicity":"unsupported","delta":"-"}'
    else:
        lines = ["# ray\tmultiplicity\tdelta"]
        row, unsupported = "%s\t%d\t%s", "%s\tunsupported\t-"
    failed = False
    for ray in rays:
        label = _vector_text(ray)
        try:
            m = firmaments.multiplicity_at(firm, ray)
        except RayUnsupportedError:
            lines.append(unsupported % label)
            failed = True
        else:
            lines.append(row % (label, m, 1 - Fraction(1, m)))
    return [lines], (3 if failed else 0)


def _cmd_abc_scan(args):
    from . import heights

    try:
        threshold = Fraction(args.min_quality)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad quality threshold {args.min_quality!r}") from None
    rows = heights._abc_rows(args.max_c, threshold, args.workers)
    # one string a row, for the columns a, b, c, rad, quality; "%" on the
    # row tuple beats unpacking it into an f-string
    if args.format == "jsonl":
        return [
            [f'{{"a":{a},"b":{b},"c":{c},"rad":{rad},"quality":{round(q, 9)!r}}}' for a, b, c, rad, q in rows]
        ], 0
    lines = ["%d\t%d\t%d\t%d\t%.9f" % r for r in rows]
    lines.insert(0, "# a\tb\tc\trad\tquality")
    return [lines], 0


def _cmd_vojta_gap(args):
    from . import heights

    events = heights.scan_vojta_gap(args.eps_prime, args.max_c)
    if args.format == "jsonl":
        return [[f'{{"a":{e.a},"b":{e.b},"c":{e.c},"gap":{round(e.gap, 9)!r}}}' for e in events]], 0
    return [["# a\tb\tc\tgap", *(f"{e.a}\t{e.b}\t{e.c}\t{e.gap:.9f}" for e in events)]], 0


def _cmd_minimal_profiles(args):
    from . import curves

    profiles = curves.minimal_general_type_profiles(args.max_marks, args.max_mult)
    rows = []
    for mults in profiles:
        profile = curves.MultiplicityProfile.of(0, mults)
        rows.append((",".join(map(str, mults)), curves.constellation_degree(profile)))
    if args.format == "jsonl":
        return [['{"multiplicities":"%s","degree":"%s"}' % r for r in rows]], 0
    return [["# multiplicities\tdegree", *("%s\t%s" % r for r in rows)]], 0


_COMMANDS = {
    "classify": (_cmd_classify, "classify constellation curve profiles"),
    "enumerate": (_cmd_enumerate, "enumerate soft integral points"),
    "firmament": (_cmd_firmament, "multiplicity table of a firmament file"),
    "abc-scan": (_cmd_abc_scan, "quality-ordered scan of abc triples"),
    "vojta-gap": (_cmd_vojta_gap, "running-max gap trace on the abc line"),
    "minimal-profiles": (_cmd_minimal_profiles, "minimal general-type profiles"),
}

# Every setting, declared once: its argparse name, the subcommands that take
# it and its keywords.  The parser is built from this table, and a config
# key is the name without dashes, checked by the same keywords; the two
# entries that share the key `file` take the same values.
_SETTINGS = (
    ("--format", _COMMANDS, {"choices": ("tsv", "jsonl"), "default": "tsv"}),
    ("profiles", ("classify",), {"nargs": "*", "help": "profiles like g=0;m=2,3,7"}),
    ("--file", ("classify",), {"help": "file with one profile per line"}),
    ("--delta", ("enumerate",), {"required": True, "help": "three multiplicities, e.g. 2,2,2"}),
    ("--max", ("enumerate",), {"type": int, "required": True, "help": "height bound"}),
    ("--positive", ("enumerate",), {"action": "store_true", "help": "restrict to 0 < a < c"}),
    ("file", ("firmament",), {"help": "firmament file"}),
    ("--rays", ("firmament",), {"required": True, "help": "semicolon-separated rays, e.g. (1,0);(0,1)"}),
    ("--eps-prime", ("vojta-gap",), {"type": float, "required": True}),
    ("--max-c", ("abc-scan", "vojta-gap"), {"type": int, "required": True}),
    ("--min-quality", ("abc-scan",), {"default": "1.0"}),
    ("--workers", ("enumerate", "abc-scan"), {"type": int, "default": 1}),
    ("--max-marks", ("minimal-profiles",), {"type": int, "default": 5}),
    ("--max-mult", ("minimal-profiles",), {"type": int, "default": 7}),
)


def _build_parser(cfg: dict) -> argparse.ArgumentParser:
    """The full parser, with the checked config values `cfg` as defaults."""
    parser = argparse.ArgumentParser(
        prog="constel",
        description="constellation curves, firmaments, soft integral points and abc instrumentation",
    )
    parser.add_argument("--config", help="key=value defaults file; flags override")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, (func, text) in _COMMANDS.items():
        p = commands[name] = sub.add_parser(name, help=text)
        p.add_argument("--config", help=argparse.SUPPRESS)
        p.set_defaults(func=func)
    for name, takers, kwargs in _SETTINGS:
        key = name.lstrip("-")
        if key in cfg:  # a file value is the default and satisfies `required`
            kwargs = {**kwargs, "default": cfg[key]}
            if name.startswith("-"):
                kwargs["required"] = False
            else:
                kwargs["nargs"] = "?"
        for command in takers:
            commands[command].add_argument(name, **kwargs)
    return parser


# finds --config by argparse's own rules, abbreviations included
_CONFIG_PARSER = argparse.ArgumentParser(add_help=False, exit_on_error=False)
_CONFIG_PARSER.add_argument("--config")

_SWITCH_VALUES = {
    **dict.fromkeys(("1", "true", "yes", "on"), True),
    **dict.fromkeys(("0", "false", "no", "off"), False),
}


def _load_config(path: str) -> dict:
    """The settings of a key=value file by key, each value checked and
    converted as its flag would be."""
    lines = {}
    for no, ln in enumerate(_read_text(path, "config file").splitlines(), start=1):
        s = ln.strip()
        if not s or s.startswith("#"):
            continue
        key, sep, value = s.partition("=")
        if not sep:
            raise ParseError(f"config line {no}: expected key=value, got {s!r}")
        lines[key.strip()] = value.strip()
    # a list positional takes no single value, so it has no key
    kinds = {name.lstrip("-"): kw for name, _, kw in _SETTINGS if "nargs" not in kw}
    unknown = [k for k in lines if k.replace("_", "-") not in kinds]
    if unknown:
        raise ParseError(f"unknown config keys: {', '.join(sorted(unknown))}")
    cfg = {}
    for key, raw in lines.items():
        kw = kinds[key.replace("_", "-")]
        try:
            if kw.get("action") == "store_true":
                value = _SWITCH_VALUES[raw.lower()]
            else:
                value = kw.get("type", str)(raw)
            if "choices" in kw and value not in kw["choices"]:
                raise ValueError(raw)
        except (KeyError, ValueError):
            raise ParseError(f"config key {key!r}: bad value {raw!r}") from None
        cfg[key.replace("_", "-")] = value
    return cfg


def _reader_left() -> int:
    """Exit status once stdout's reader has closed the pipe, as `head`
    does: the reader's choice, not a fault.  fd 1 now points at /dev/null,
    so the interpreter's final flush of what is still buffered raises
    nothing, and the status is that of a filter killed by SIGPIPE."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)
    return 141


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        try:
            cfg_path = _CONFIG_PARSER.parse_known_args(argv)[0].config
        except argparse.ArgumentError:
            cfg_path = None  # the full parser reports it
        parser = _build_parser(_load_config(cfg_path) if cfg_path else {})
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
        # every refusal is raised by now: the command has checked its input
        # and built its tables, and only its blocks of lines are left
        blocks, code = args.func(args)
        write = sys.stdout.write
        for lines in blocks:
            if lines:
                try:
                    write("\n".join(lines))
                    write("\n")
                except BrokenPipeError:
                    return _reader_left()
        return code
    except (ParseError, MathDomainError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception as exc:  # a fault of the program, not of its input
        import traceback  # only a failing run pays for the import

        traceback.print_exc()
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
