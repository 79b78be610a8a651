"""Command-line front end.

Commands:

* ``invariant --d D --n N (--mu0 b1,...,bD | --all-basic) --word "..."``:
  3-variable invariant(s) of the closure of a framed braid word.
* ``homflypt --n N --word "..."``: 2-variable invariant of a classical
  braid closure.
* ``jl --d D --S a1,a2,... --n N --word "..." [--q Q --z Z [--branch B]]``:
  the weighted-trace invariant attached to a subset S, either as a
  u,v,gamma-polynomial or evaluated numerically at (q, z).
* ``verify --suite {iso,jl,markov,schur} --d D --n N``: self-check
  suites; prints ``PASS/FAIL <check-id>`` lines.
* ``list-traces --d D``: the supports and weights of the basic traces.

Braid words are whitespace-separated tokens: a nonzero integer ``K``
means the crossing ``sigma_|K|`` with the sign of ``K``, and ``tJ^K``
means the J-th framing generator to the K-th power.  Polynomials print
either in text form or, with ``--machine``, one term per line as
``e_u e_v e_g c_0 c_1 ...`` (exponents, then the rational coordinates of
the cyclotomic coefficient).

Exit codes: 0 on success, 1 on computation or validation errors, 2 on
usage errors.  Every error path prints exactly one line to stderr.
Output is deterministic: identical inputs give byte-identical output.
"""

from __future__ import annotations

import argparse
import sys

from .links import (
    basic_invariants,
    homflypt,
    invariant_gamma,
    jl_invariant,
    jl_numeric,
    parse_word,
)
from .permcomp import Composition
from .traces import all_basic_specs, basic_spec, format_trace_spec
from .verify import SuiteConfigError, run_suite, suite_names

__all__ = ["main", "entry"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Parser that reports usage problems as exceptions (exit code 2)."""

    def error(self, message):
        raise _UsageError(message)


def _parse_mu0(text: str, d: int) -> Composition:
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"malformed support {text!r}; expected e.g. 1,0,1")
    if len(parts) != d:
        raise ValueError(f"support {text!r} must have exactly d={d} parts")
    return Composition(parts)


def _parse_subset(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"malformed subset {text!r}; expected e.g. 1,2")


def _print_poly(poly, machine: bool) -> None:
    if machine:
        for line in poly.machine_lines():
            print(line)
    else:
        print(poly.text())


def _cmd_invariant(args) -> int:
    word = parse_word(args.word, args.n, args.d)
    if args.all_basic:
        for mu0, poly in basic_invariants(word, args.d).items():
            if args.machine:
                print(f"mu0={mu0}")
                _print_poly(poly, True)
            else:
                print(f"mu0={mu0} : {poly.text()}")
    else:
        spec = basic_spec(_parse_mu0(args.mu0, args.d))
        _print_poly(invariant_gamma(word, spec), args.machine)
    return 0


def _cmd_homflypt(args) -> int:
    word = parse_word(args.word, args.n, None)
    _print_poly(homflypt(word), args.machine)
    return 0


def _cmd_jl(args) -> int:
    if (args.q is None) != (args.z is None):
        raise _UsageError("--q and --z must be given together")
    subset = _parse_subset(args.S)
    word = parse_word(args.word, args.n, args.d)
    if args.q is not None:
        value = jl_numeric(word, args.d, subset, args.q, args.z, args.branch)
        print(format(value, ".12g"))
    else:
        _print_poly(jl_invariant(word, args.d, subset), args.machine)
    return 0


def _cmd_verify(args) -> int:
    try:
        results = run_suite(args.suite, args.d, args.n)
    except SuiteConfigError as exc:
        raise _UsageError(str(exc))
    failed = False
    for check_id, ok, detail in results:
        if ok:
            print(f"PASS {check_id}")
        else:
            failed = True
            print(f"FAIL {check_id} : {detail}")
    return 1 if failed else 0


def _cmd_list_traces(args) -> int:
    if not 1 <= args.d <= 10:
        raise _UsageError("--d must be between 1 and 10")
    for spec in all_basic_specs(args.d):
        print(format_trace_spec(spec))
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="yokohecke",
        description="Exact link invariants from Yokonuma-Hecke algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("invariant", help="3-variable invariant of a framed closure")
    p.add_argument("--d", type=int, required=True, help="framing modulus (d >= 1)")
    p.add_argument("--n", type=int, required=True, help="strand count")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--mu0", help="trace support: d comma-separated 0/1 parts")
    group.add_argument(
        "--all-basic", action="store_true", help="print one line per basic trace"
    )
    p.add_argument("--word", required=True, help="braid word (see module help)")
    p.add_argument("--machine", action="store_true", help="one term per line")
    p.set_defaults(func=_cmd_invariant)

    p = sub.add_parser("homflypt", help="2-variable invariant of a classical closure")
    p.add_argument("--n", type=int, required=True, help="strand count")
    p.add_argument("--word", required=True, help="unframed braid word")
    p.add_argument("--machine", action="store_true", help="one term per line")
    p.set_defaults(func=_cmd_homflypt)

    p = sub.add_parser("jl", help="weighted-trace invariant for a subset S")
    p.add_argument("--d", type=int, required=True, help="framing modulus")
    p.add_argument("--S", required=True, help="subset of 1..d, e.g. 1,2")
    p.add_argument("--n", type=int, required=True, help="strand count")
    p.add_argument("--word", required=True, help="braid word")
    p.add_argument("--q", type=complex, default=None, help="numeric q (complex)")
    p.add_argument("--z", type=complex, default=None, help="numeric z (complex)")
    p.add_argument(
        "--branch",
        type=int,
        choices=(1, -1),
        default=1,
        help="branch of sqrt(lambda); -1 multiplies the value by (-1)^(c-1) for c components",
    )
    p.add_argument("--machine", action="store_true", help="one term per line")
    p.set_defaults(func=_cmd_jl)

    p = sub.add_parser("verify", help="run a self-check suite")
    p.add_argument("--suite", required=True, choices=suite_names())
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("list-traces", help="list the basic trace specs")
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=_cmd_list_traces)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":  # pragma: no cover
    entry()
