"""Child processes started by bench/run.py.

    python3 bench/child.py scan <workload> <seed> <first-cycle> <first-op> <seconds> <trace> <out>
        One scan worker (run.scan_worker): import sobstab.cli and warm up,
        as one timed set-up sample, then measure the workload's stream
        from <first-cycle> on for <seconds>, and write the outcome to <out>.

    python3 [-X importtime] bench/child.py cli <span-file> <sobstab argv...>
        The traced cold-cli entry point: install the span wrappers, run
        sobstab.cli.main(argv), write the spans to <span-file> and exit
        with the CLI's exit code.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str]) -> int:
    mode, *rest = argv
    if mode == "scan":
        import run

        workload, seed, first_cycle, first_op, seconds, trace, out = rest
        run.scan_worker(workload, int(seed), int(first_cycle), int(first_op), float(seconds),
                        bool(int(trace)), Path(out))
        return 0
    if mode == "cli":
        sys.path.insert(0, str(SRC))
        import sobstab.cli  # first, so -X importtime sees the CLI's own imports

        from spans import Tracer

        span_file, *cli_argv = rest
        tracer = Tracer()
        tracer.install()
        try:
            return sobstab.cli.main(cli_argv)
        finally:
            tracer.dump(span_file)
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
