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

Options take their value as ``--opt value`` or ``--opt=value``; a value
may begin with a single ``-`` (``--q -1+2j``), an option may be shortened
to a unique prefix (``--all`` for ``--all-basic``), and the last repeat of
an option wins.  ``-h`` or ``--help`` prints this text.

Exit codes: 0 on success, 1 on computation or validation errors, 2 on
usage errors.  Every error path prints exactly one line to stderr.
Output is deterministic: identical inputs give byte-identical output.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

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

__all__ = ["main", "entry"]


class _UsageError(Exception):
    pass


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
    from .verify import SuiteConfigError, run_suite

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


def _suite_names() -> tuple[str, ...]:
    from .verify import suite_names

    return suite_names()


# An option is (type, required, default, choices), its type int, complex,
# str or None for a flag, its choices a tuple or a function returning one,
# called only when the option is read: the oracle modules load only for
# `verify`.  Each command lists its function, its options in
# the order usage errors name them, and its required group of mutually
# exclusive options.
_INT = (int, True, None, None)
_STR = (str, True, None, None)
_FLAG = (None, False, False, None)
_COMMANDS = {
    "invariant": (_cmd_invariant, {
        "--d": _INT, "--n": _INT, "--mu0": (str, False, None, None),
        "--all-basic": _FLAG, "--word": _STR, "--machine": _FLAG,
    }, ("--mu0", "--all-basic")),
    "homflypt": (_cmd_homflypt, {"--n": _INT, "--word": _STR, "--machine": _FLAG}, ()),
    "jl": (_cmd_jl, {
        "--d": _INT, "--S": _STR, "--n": _INT, "--word": _STR,
        "--q": (complex, False, None, None), "--z": (complex, False, None, None),
        "--branch": (int, False, 1, (1, -1)), "--machine": _FLAG,
    }, ()),
    "verify": (_cmd_verify, {
        "--suite": (str, True, None, _suite_names), "--d": _INT, "--n": _INT,
    }, ()),
    "list-traces": (_cmd_list_traces, {"--d": _INT}, ()),
}


def _read(tokens, options, group, values, extras) -> bool:
    """Read `--opt value` and `--opt=value` into `values`, keyed by the
    option that `--opt` names or uniquely abbreviates; a value may begin
    with one `-`.  Other tokens go to `extras`.  True if help is asked for."""
    names = ("--help", *options)
    rest = iter(tokens)
    for tok in rest:
        if tok == "-h":
            return True
        if tok == "--" or not tok.startswith("--"):
            extras += [tok, *rest] if tok == "--" else [tok]
            continue
        name, eq, value = tok.partition("=")
        matches = [name] if name in names else [opt for opt in names if opt.startswith(name)]
        if len(matches) > 1:
            raise _UsageError(f"ambiguous option: {tok} could match {', '.join(matches)}")
        if not matches:
            extras.append(tok)
            continue
        name = matches[0]
        kind, _, _, choices = options.get(name, _FLAG)  # --help is a flag
        if kind is None:
            if eq:
                raise _UsageError(f"argument {name}: ignored explicit argument {value!r}")
            if name == "--help":
                return True
            value = True
        else:
            if not eq:
                value = next(rest, None)
                if value is None or value.startswith("--"):
                    raise _UsageError(f"argument {name}: expected one argument")
            try:
                value = kind(value)
            except ValueError:
                raise _UsageError(f"argument {name}: invalid {kind.__name__} value: {value!r}")
            if callable(choices):
                choices = choices()
            if choices and value not in choices:
                listed = ", ".join(map(repr, choices))
                raise _UsageError(
                    f"argument {name}: invalid choice: {value!r} (choose from {listed})"
                )
        clash = [opt for opt in group if opt != name and opt in values]
        if name in group and clash:
            raise _UsageError(f"argument {name}: not allowed with argument {clash[0]}")
        values[name] = value
    return False


def _parse(argv: list[str]):
    """The command's function and its arguments, or None for help."""
    at = next((i for i, tok in enumerate(argv) if not tok.startswith("-")), len(argv))
    extras: list[str] = []
    if _read(argv[:at], {}, (), {}, extras):
        return None
    if at == len(argv):
        raise _UsageError("the following arguments are required: command")
    if argv[at] not in _COMMANDS:
        listed = ", ".join(map(repr, _COMMANDS))
        raise _UsageError(f"argument command: invalid choice: {argv[at]!r} (choose from {listed})")
    func, options, group = _COMMANDS[argv[at]]
    values: dict = {}
    if _read(argv[at + 1:], options, group, values, extras):
        return None
    missing = [opt for opt, spec in options.items() if spec[1] and opt not in values]
    if missing:
        raise _UsageError(f"the following arguments are required: {', '.join(missing)}")
    if group and not any(opt in values for opt in group):
        raise _UsageError(f"one of the arguments {' '.join(group)} is required")
    if extras:
        raise _UsageError(f"unrecognized arguments: {' '.join(extras)}")
    args = {opt[2:].replace("-", "_"): values.get(opt, spec[2]) for opt, spec in options.items()}
    return func, SimpleNamespace(**args)


def _help() -> None:
    print(f"usage: yokohecke {{{','.join(_COMMANDS)}}} [options]")
    if __doc__:
        print("\n" + __doc__.partition("\n\n")[2], end="")


def main(argv=None) -> int:
    try:
        parsed = _parse(sys.argv[1:] if argv is None else list(argv))
        if parsed is None:
            _help()
            return 0
        func, args = parsed
        return func(args)
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
