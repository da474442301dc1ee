"""``ddmcpp`` — the preprocessor command-line tool.

Usage::

    ddmcpp input.ddm -o output.py        # emit the generated module
    ddmcpp input.ddm --run               # preprocess and run sequentially
    ddmcpp input.ddm --run --kernels 4   # run on the simulated platform
    ddmcpp input.ddm --check-deps        # diagnose declared arcs against
                                         # the derived dependence graph
    ddmcpp input.ddm --check-races       # one recorded functional run:
                                         # undeclared accesses + races
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.preprocessor.backend import compile_to_program, emit_module
from repro.preprocessor.errors import DDMSyntaxError

__all__ = ["main"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ddmcpp",
        description="Data-Driven Multithreading preprocessor (TFlux tool-chain)",
    )
    parser.add_argument("input", help="DDM source file (C subset + #pragma ddm)")
    parser.add_argument("-o", "--output", help="write the generated Python module here")
    parser.add_argument("--run", action="store_true", help="build and execute")
    parser.add_argument(
        "--kernels",
        type=int,
        default=0,
        help="with --run: execute on the simulated TFluxHard platform with "
        "this many kernels (0 = plain sequential execution)",
    )
    parser.add_argument(
        "--check-deps",
        action="store_true",
        help="diagnose the declared synchronization graph against the "
        "dependence graph derived from access clauses: flag redundant "
        "(no access overlap) and missing (derived conflict with no "
        "ordering path) arcs; exit 1 if any dependence is missing",
    )
    parser.add_argument(
        "--check-races",
        action="store_true",
        help="execute the program once functionally under the dynamic "
        "race detector: recorded footprints are held to the declared "
        "access clauses and to the arc-induced happens-before order; "
        "exit 1 on any undeclared access or race",
    )
    args = parser.parse_args(argv)

    try:
        source = Path(args.input).read_text()
    except OSError as exc:
        print(f"ddmcpp: cannot read {args.input}: {exc}", file=sys.stderr)
        return 1
    try:
        if args.check_deps or args.check_races:
            from repro.check import audit

            return audit(
                lambda: compile_to_program(source),
                args.input,
                args.check_deps,
                args.check_races,
            )
        if args.output:
            Path(args.output).write_text(emit_module(source))
            print(f"wrote {args.output}")
        if args.run or not args.output:
            program = compile_to_program(source)
            if args.kernels > 0:
                from repro.platforms import TFluxHard

                result = TFluxHard().execute(program, nkernels=args.kernels)
                print(
                    f"executed {program.name!r} on tfluxhard with "
                    f"{args.kernels} kernels in {result.cycles:,} cycles"
                )
                env = result.env
            else:
                env = program.run_sequential()
                print(f"executed {program.name!r} sequentially")
            scalars = {
                name: env.get(name)
                for name in env.names()
                if not hasattr(env.get(name), "shape")
            }
            if scalars:
                print("shared scalars:", scalars)
    except DDMSyntaxError as exc:
        print(f"ddmcpp: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
