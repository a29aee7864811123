"""Command-line front end.

Commands:

- ``classify FILE``: run the checker on a theory file and print the report.
- ``complete FILE``: write the direct-sum completion as a theory file.
- ``quotient FILE``: quotient by operational equivalence and summarize the
  class structure per probe homset.
- ``compose FILE F G``: compose two named events of a table theory.
- ``axioms``: list the stable check identifiers.

Exit status: 0 success, 1 the analysis itself found failures (for example a
classification with failing checks), 2 input or usage error, 3 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import checker
from .constructions import plus_completion, quotient
from .errors import OpcheckError, TheoryFileError
from .table import TableTheory
from .theoryfile import load_theory, save_theory, serialize_theory

EXIT_OK = 0
EXIT_FAILURES = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _at_least(least):
    """An argparse type: an integer no smaller than ``least``."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError(
                f"must be at least {least}, got {value}")
        return value
    return parse


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="opcheck",
        description="Verify operational theories against the axioms on "
                    "finite probe sets.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_axiom=True):
        p.add_argument("path", help="theory file (optheory/1 JSON)")
        p.add_argument("--bound", type=_at_least(0), default=2,
                       help="probe object size bound (default 2)")
        p.add_argument("--grid", type=_at_least(1), default=None,
                       help="enumeration grid override for matrix theories")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for sampled checks (default 0)")
        p.add_argument("--cap", type=_at_least(1), default=checker.DEFAULT_CAP,
                       help="homset enumeration cap (default %(default)s)")
        p.add_argument("--format", choices=("json", "text"), default="text",
                       dest="fmt", help="output format (default text)")
        if with_axiom:
            p.add_argument("--axiom", action="append", default=None,
                           metavar="ID",
                           help="restrict to the named check (repeatable)")

    p = sub.add_parser("classify", help="run all checks and classify")
    add_common(p)

    p = sub.add_parser("complete", help="direct-sum completion")
    p.add_argument("path", help="theory file (optheory/1 JSON)")
    p.add_argument("--bound", type=_at_least(0), default=None,
                   help="object bound recorded in the output")
    p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("quotient", help="quotient by operational equivalence")
    add_common(p, with_axiom=False)
    p.add_argument("--monoidal", action="store_true",
                   help="probe with ancilla systems as well")

    p = sub.add_parser("compose", help="compose two named events of a table theory")
    p.add_argument("path", help="theory file (optheory/1 JSON)")
    p.add_argument("first", help="name of the event applied first")
    p.add_argument("second", help="name of the event applied second")
    p.add_argument("--format", choices=("json", "text"), default="text",
                   dest="fmt")

    p = sub.add_parser("axioms", help="list stable check identifiers")
    p.add_argument("--format", choices=("json", "text"), default="text",
                   dest="fmt")
    return parser


def _use_color():
    return sys.stdout.isatty() and not os.environ.get("NO_COLOR")


def _load(args):
    return load_theory(args.path, grid=getattr(args, "grid", None))


def _config(args):
    return checker.ProbeConfig(bound=args.bound, cap=args.cap,
                               grid=getattr(args, "grid", None),
                               seed=args.seed)


def cmd_classify(args):
    theory = _load(args)
    only = None
    if args.axiom:
        unknown = [a for a in args.axiom if a not in checker.CHECK_IDS]
        if unknown:
            raise TheoryFileError(
                f"unknown axiom id(s): {', '.join(unknown)}; "
                "see `opcheck axioms`", "--axiom")
        only = args.axiom
    report = checker.classify(theory, _config(args), only=only)
    if args.fmt == "json":
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(report.render_text(color=_use_color()))
    return EXIT_FAILURES if report.any_failures else EXIT_OK


def cmd_complete(args):
    theory = load_theory(args.path)
    completed = plus_completion(theory)
    if args.bound is None and not isinstance(theory, TableTheory):
        print("error: --bound is required to serialize the completion of a "
              "builtin theory", file=sys.stderr)
        return EXIT_INPUT
    if args.out:
        save_theory(completed, args.out, bound=args.bound)
    else:
        print(json.dumps(serialize_theory(completed, bound=args.bound),
                         indent=2, sort_keys=True))
    return EXIT_OK


def cmd_quotient(args):
    theory = _load(args)
    q = quotient(theory, bound=args.bound, cap=args.cap, seed=args.seed,
                 monoidal=args.monoidal)
    probes = theory.probe_objects(args.bound)
    counts = {}
    separated = True
    for a in probes:
        for b in probes:
            try:
                groups = q.class_counts(a, b)
            except OpcheckError:
                continue
            key = f"{theory.object_str(a)} -> {theory.object_str(b)}"
            counts[key] = groups
            if not q.is_separated(a, b):
                separated = False
    doc = {"format": "opcheck/1", "theory": theory.name,
           "config": _config(args).to_json(),
           "quotient": {"class_counts": counts, "separated": separated,
                        "monoidal": bool(args.monoidal)}}
    if args.fmt == "json":
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(f"theory: {theory.name}")
        for key in sorted(counts):
            print(f"  {key}: classes {counts[key]}")
        mode = "monoidally separated" if args.monoidal else "separated"
        print(f"quotient is {mode}: {separated}")
    # the quotient must separate its own probe homsets; a violation here is
    # a broken invariant of the construction, not an input problem
    return EXIT_OK if separated else EXIT_INTERNAL


def cmd_compose(args):
    theory = load_theory(args.path)
    if not isinstance(theory, TableTheory):
        print("error: compose needs a table theory with named events",
              file=sys.stderr)
        return EXIT_INPUT
    by_name = {}
    for (x, y), entries in theory.homs.items():
        for nm, payload in entries:
            by_name[nm] = theory._m((x,), (y,), payload)
    for nm in (args.first, args.second):
        if nm not in by_name:
            print(f"error: unknown event {nm!r}", file=sys.stderr)
            return EXIT_INPUT
    f, g = by_name[args.first], by_name[args.second]
    if f.cod != g.dom:
        print(f"error: codomain of {args.first!r} is "
              f"{theory.object_str(f.cod)} but domain of {args.second!r} is "
              f"{theory.object_str(g.dom)}", file=sys.stderr)
        return EXIT_FAILURES
    h = theory.compose(g, f)
    s = theory.semiring
    payload = [[s.element_str(v) for v in row] for row in h.payload]
    name = theory._find(f.dom[0], g.cod[0], h.payload)
    if args.fmt == "json":
        print(json.dumps({"format": "opcheck/1",
                          "compose": {"first": args.first,
                                      "second": args.second,
                                      "dom": theory.object_str(h.dom),
                                      "cod": theory.object_str(h.cod),
                                      "payload": payload, "name": name},
                          "theory": theory.name}, indent=2, sort_keys=True))
    else:
        shown = name or payload
        print(f"{args.second} . {args.first} = {shown}")
    return EXIT_OK


def cmd_axioms(args):
    entries = [{"id": cid, "paper_ref": ref}
               for cid, ref, _, _ in checker.CHECKS]
    if args.fmt == "json":
        print(json.dumps({"format": "opcheck/1", "axioms": entries},
                         indent=2, sort_keys=True))
    else:
        for e in entries:
            print(f"{e['id']:32s} {e['paper_ref']}")
    return EXIT_OK


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"classify": cmd_classify, "complete": cmd_complete,
                "quotient": cmd_quotient, "compose": cmd_compose,
                "axioms": cmd_axioms}
    try:
        return handlers[args.command](args)
    except TheoryFileError as exc:
        where = f" (at {exc.location})" if exc.location else ""
        print(f"error: {exc}{where}", file=sys.stderr)
        return EXIT_INPUT
    except OpcheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
