"""Command-line entry point for the verification suites.

Exit codes: 0 all checks passed, 1 at least one counterexample,
2 usage or configuration error, 3 crash.  An ``--out`` path that is
empty or a directory, or whose directory is missing or not writable, is
a usage error, found before any suite runs; a report that still cannot be
written exits 3.  A suite that raises is recorded
in the report as a ``crash`` failure and the other suites still run; an
exception that escapes the run itself prints its traceback to stderr and
writes no report.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback

from .suites import SUITE_ORDER, SUITES, ConfigError, SuiteConfig, run_suite


def build_parser() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--modulus",
        type=int,
        action="append",
        dest="moduli",
        metavar="N",
        help="base ring modulus; repeatable, each value once "
        f"(default: {' '.join(map(str, SuiteConfig.moduli))})",
    )
    parent.add_argument("--max-order", type=int, default=SuiteConfig.max_module_order, metavar="B",
                        help="largest module order enumerated, at least 1 (default %(default)s)")
    parent.add_argument("--max-kernel", type=int, default=SuiteConfig.max_kernel_order, metavar="B",
                        help="largest kernel order in conflation walks (default %(default)s); "
                        "flat-equiv needs at least the largest prime p with p^2 | N "
                        "and p <= --max-order, for each modulus N, and prop1 at least 1; "
                        "enough-pi reads it as the largest middle order of the "
                        "conflations starting at M++")
    parent.add_argument("--span", type=int, default=SuiteConfig.max_complex_span, metavar="K",
                        help="largest complex window span (default %(default)s)")
    parent.add_argument("--mode", choices=("exhaustive", "sample"), default=SuiteConfig.mode,
                        help="(default %(default)s)")
    parent.add_argument("--samples", type=int, default=SuiteConfig.sample_count, metavar="C",
                        help="sample size per quantifier in sample mode (default %(default)s)")
    parent.add_argument("--seed", type=int,
                        help="seed for sample mode (required there)")
    parent.add_argument("--format", choices=("text", "json"), default="text",
                        help="(default %(default)s)")
    parent.add_argument("--out", metavar="PATH",
                        help="write the report here instead of stdout")

    parser = argparse.ArgumentParser(
        prog="modcat",
        description="Exhaustive desk-scale verification of the exact structure, "
        "purity, flatness, and complex-level properties of finite modules over Z/n.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_) in SUITES.items():
        sub.add_parser(name, parents=[parent], help=help_)
    sub.add_parser("all", parents=[parent], help="run every suite")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = SuiteConfig(
            moduli=tuple(args.moduli) if args.moduli else SuiteConfig.moduli,
            max_module_order=args.max_order,
            max_kernel_order=args.max_kernel,
            max_complex_span=args.span,
            mode=args.mode,
            sample_count=args.samples,
            seed=args.seed,
        )
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out is not None:
        # Checked before the run, which can take minutes at default bounds.
        if not args.out:
            print("error: --out needs a path", file=sys.stderr)
            return 2
        if os.path.isdir(args.out):
            print(f"error: --out {args.out} is a directory", file=sys.stderr)
            return 2
        out_dir = os.path.dirname(os.path.abspath(args.out))
        if not (os.path.isdir(out_dir) and os.access(out_dir, os.W_OK)):
            print(f"error: --out directory {out_dir} does not exist or is not writable",
                  file=sys.stderr)
            return 2
    names = SUITE_ORDER if args.command == "all" else (args.command,)
    try:
        report = run_suite(config, names=names)
    except ConfigError as exc:  # raised before any suite runs
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # a crash must not look like a counterexample
        traceback.print_exc()
        return 3
    rendered = report.to_json() if args.format == "json" else report.to_text()
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(rendered)
        except OSError as exc:
            print(f"error: cannot write the report: {exc}", file=sys.stderr)
            return 3
    else:
        sys.stdout.write(rendered)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
