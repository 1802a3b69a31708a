"""Command-line front end.

Subcommands: transform (coefficients to JSON, through the packed real FFT of
`transform.analyze` for every N), periods (strength report via the matrix or
dictionary method), filter-band (band-limited reconstruction), benchmark
(complexity table plus the op counters measured on `foccpt`, the CLI's one
route to the counting fast transform), and fixture (write the bundled
reference signals).

Input signals are single-column UTF-8 CSV files of decimal samples with an
optional "value" header and an optional byte-order mark. Exit codes: 0 ok,
1 invalid arguments, 2 input that cannot be read or parsed, or output that
cannot be written, 3 numeric failure: a singular factor, or a result that
is not finite, which no writer spells; nothing is written then.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from itertools import chain, islice

import numpy as np

from . import period as periodmod
from . import signals as sig
from . import transform as tr
from .foccpt import _radix2, complexity_table, foccpt, predicted_counts
from .matrices import FAMILIES, OCCPT, column_layout
from .transform import band_filter

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_NUMERIC = 3


class CsvParseError(Exception):
    def __init__(self, path, line_no, text, reason="cannot parse sample value"):
        super().__init__(f"{path}:{line_no}: {reason} {text!r}")
        self.line_no = line_no


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; this CLI reserves 2 for parse errors
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_lines(path, lines) -> np.ndarray:
    """The samples of `lines` (the file's lines, numbered from 1), one line
    at a time: blank lines and a "value" header on line 1 are skipped, and
    the first bad line raises a CsvParseError naming it."""
    values = []
    for line_no, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text:
            continue
        if line_no == 1 and text.lower() == "value":
            continue
        try:
            value = float(text)
        except ValueError:
            raise CsvParseError(path, line_no, text) from None
        # float() also accepts nan, inf and overflowing literals like 1e999
        if not math.isfinite(value):
            raise CsvParseError(path, line_no, text, "non-finite sample value")
        values.append(value)
    if not values:
        raise CsvParseError(path, 1, "<empty file>")
    return np.array(values)


def read_signal_csv(path) -> np.ndarray:
    """The samples of a single-column UTF-8 CSV file with an optional
    "value" header, as a float array; CsvParseError names the first bad
    line. A leading byte-order mark, which spreadsheet exports write, is
    skipped."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        lines = fh.read().rstrip().split("\n")
    # float() strips the same whitespace as str.strip(), so a well-formed
    # file converts in one pass; a blank line, a bad value or a non-finite
    # one sends it to the line loop, which finds and names the line
    start = 1 if lines[0].strip().lower() == "value" else 0
    try:
        values = np.array(list(map(float, islice(lines, start, None))))
    except ValueError:
        return _parse_lines(path, lines)
    if not values.size or not np.isfinite(values).all():
        return _parse_lines(path, lines)
    return values


def _finite(values: np.ndarray, what: str) -> np.ndarray:
    """values, refused with a FloatingPointError naming `what` unless all
    are finite: no writer spells nan or infinity."""
    if not np.isfinite(values).all():
        raise FloatingPointError(f"{what} are not finite")
    return values


def write_signal_csv(path, samples) -> None:
    values = _finite(np.asarray(samples, dtype=float), "samples").tolist()
    with open(path, "w") as fh:
        fh.write("value\n" + ("%.12g\n" * len(values)) % tuple(values))


def _floats_json(values: np.ndarray) -> list[str]:
    """json.dumps's spelling of each float of a finite real array."""
    return list(map(float.__repr__, values.tolist()))


# complex entries as json.dumps indents them in the flat list and in a row
_COMPLEX_FLAT = '{\n      "im": %s,\n      "re": %s\n    }'
_COMPLEX_ROW = '{\n        "im": %s,\n        "re": %s\n      }'


def _numbers_json(c: tr.CoefficientSet) -> tuple[list[str], list[str]]:
    """json.dumps's text of each entry of `_nums(c.flat)` and of
    `_nums(c.column_values())`, spelling each float once; the coefficients
    must be finite."""
    _finite(c.flat, "coefficients")
    order = c.column_order().tolist()
    if not c.is_complex:
        flat = _floats_json(c.flat)
        return flat, [flat[i] for i in order]
    pairs = list(zip(_floats_json(c.flat.imag), _floats_json(c.flat.real)))
    return [_COMPLEX_FLAT % v for v in pairs], [_COMPLEX_ROW % pairs[i] for i in order]


# column kinds are plain identifiers, so "%s" spells them as json.dumps does
_INDEXED_ROW = ('    {\n      "k": %d,\n      "kind": "%s",\n      "p": %d,\n'
                '      "shift": %d,\n      "value": %s\n    }')


def _coefficients_json(c: tr.CoefficientSet) -> str:
    """The text of json.dumps(coefficients_to_dict(c), sort_keys=True,
    indent=2), built from the arrays without the pure-Python encoder that
    json.dumps falls back to whenever it indents."""
    flat, values = _numbers_json(c)
    flat = ",\n    ".join(flat)
    lay = column_layout(c.family, c.N)
    # one % over the repeated row template, as write_signal_csv formats its lines
    rows = ",\n".join([_INDEXED_ROW] * len(values)) % tuple(chain.from_iterable(zip(
        lay.k.tolist(), lay.kind.tolist(), lay.periods.tolist(), lay.shift.tolist(), values)))
    return (f'{{\n  "N": {c.N:d},\n  "family": {json.dumps(c.family)},\n'
            f'  "flat": [\n    {flat}\n  ],\n  "indexed": [\n{rows}\n  ]\n}}')


def _emit(text, path) -> None:
    if path is None:
        print(text)
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")


def _dump_json(obj, path) -> None:
    try:
        text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    except ValueError:  # a nan or an infinity, which JSON cannot spell
        raise FloatingPointError("results are not finite") from None
    _emit(text, path)


def _write_strength_csv(rows, path) -> None:
    with open(path, "w") as fh:
        fh.write("period,strength\n")
        for p, s in rows:
            fh.write(f"{p},{format(float(s), '.12g')}\n")


def cmd_transform(args) -> int:
    coeffs = tr.analyze(read_signal_csv(args.input), args.family)
    _emit(_coefficients_json(coeffs), args.out)
    return EXIT_OK


def cmd_periods(args) -> int:
    x = read_signal_csv(args.input)
    if args.method == "matrix":
        answer = periodmod.period_strengths(tr.analyze(x, args.family), threshold=args.threshold)
    else:
        d = periodmod.build_dictionary(len(x), args.pmax, family=args.family,
                                       penalty=args.penalty)
        answer = periodmod.dictionary_solve(x, d)
    payload = answer.to_dict()
    payload["method"] = args.method
    _dump_json(payload, args.out)
    if args.strengths_csv:
        _write_strength_csv(answer.strengths.items(), args.strengths_csv)
    return EXIT_OK


def _parse_band(text):
    try:
        lo, hi = text.split(":")
        return float(lo), float(hi)
    except ValueError:
        raise ValueError(f"band must be LO:HI, got {text!r}") from None


def cmd_filter_band(args) -> int:
    lo, hi = _parse_band(args.band)
    x = read_signal_csv(args.input)
    coeffs = tr.analyze(x, args.family)
    filtered = band_filter(coeffs, args.fs, lo, hi)
    y = tr.synthesize(filtered)
    write_signal_csv(args.out or "filtered.csv", np.real(y))
    return EXIT_OK


def cmd_benchmark(args) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s]
    except ValueError:
        sizes = []
    if not sizes or any(n < 1 for n in sizes):
        raise ValueError(f"invalid size list {args.sizes!r}")
    report = []
    for n in sizes:
        entry = {"N": n, "table": complexity_table(n)}
        if _radix2(n) is not None:
            _, ctr = foccpt(np.zeros(n))
            predicted = predicted_counts(n, "real")
            entry["family"] = OCCPT
            entry["measured"] = ctr.as_dict()
            entry["predicted"] = predicted.as_dict()
            entry["measured_equals_predicted"] = ctr == predicted
        report.append(entry)
    _dump_json({"benchmark": report}, args.out)
    return EXIT_OK


# each fixture's generator and the keyword that seeds its noise
_FIXTURES = {"x1": (sig.make_x1, "noise_seed"), "x2": (sig.make_x2, "noise_seed"),
             "ecg": (sig.synthetic_ecg, "seed")}


def cmd_fixture(args) -> int:
    make, seed = _FIXTURES[args.name]
    s = make(**({} if args.seed is None else {seed: args.seed}))
    write_signal_csv(args.out or f"{args.name}.csv", s.samples)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ccpt", description="Command-line front end.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_family=True):
        p.add_argument("--out", default=None, help="output path (default: stdout for JSON)")
        if with_family:
            p.add_argument("--family", choices=list(FAMILIES), default=OCCPT)

    p = sub.add_parser("transform", help="write transform coefficients as JSON")
    p.add_argument("--input", required=True)
    add_common(p)
    p.set_defaults(fn=cmd_transform)

    p = sub.add_parser("periods", help="period strength report")
    p.add_argument("--input", required=True)
    p.add_argument("--method", choices=["matrix", "dictionary"], default="matrix")
    p.add_argument("--threshold", type=float, default=0.2,
                   help="matrix method: significant periods reach this fraction of the peak")
    p.add_argument("--pmax", type=int, default=50, help="dictionary method: largest period")
    p.add_argument("--penalty", choices=["p2", "phi"], default="p2",
                   help="dictionary method: column penalty, p^2 or phi(p)")
    p.add_argument("--strengths-csv", default=None, help="also write period,strength rows")
    add_common(p)
    p.set_defaults(fn=cmd_periods)

    p = sub.add_parser("filter-band", help="band-limited reconstruction")
    p.add_argument("--input", required=True)
    p.add_argument("--fs", type=float, required=True)
    p.add_argument("--band", required=True, help="LO:HI in Hz")
    add_common(p)
    p.set_defaults(fn=cmd_filter_band)

    p = sub.add_parser("benchmark", help="complexity table and measured counters")
    p.add_argument("--sizes", required=True, help="comma-separated signal lengths")
    add_common(p, with_family=False)
    p.set_defaults(fn=cmd_benchmark)

    p = sub.add_parser("fixture", help="write a bundled reference signal")
    p.add_argument("--name", choices=list(_FIXTURES), required=True)
    p.add_argument("--seed", type=int, default=None)
    add_common(p, with_family=False)
    p.set_defaults(fn=cmd_fixture)

    return parser


# parse_args leaves the parser unchanged, so one serves every call
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        # an overflow shows as a non-finite result, which every writer refuses
        with np.errstate(over="ignore", invalid="ignore"):
            return args.fn(args)
    # LinAlgError and UnicodeDecodeError subclass ValueError, so they come first
    except (CsvParseError, OSError, UnicodeDecodeError) as exc:
        print(f"ccpt: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"ccpt: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, KeyError) as exc:
        print(f"ccpt: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
