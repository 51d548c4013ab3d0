"""Shared pytest hooks and helpers.

test_acceptance appends one line per criterion to `acceptance_lines`; the
terminal-summary hook below prints them after the run so the verdicts are
visible without -s.  `eager_parser` is the reference that the CLI's parser
is held to.
"""

import argparse
import functools
import shutil

from shiftlab import __version__, cli

acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance summary")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


def eager_parser() -> argparse.ArgumentParser:
    """The CLI parser with every subparser holding all its flags, which
    `cli._build_parser` adds to the subparser its argv names alone."""
    formatter = functools.partial(
        argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2
    )
    parser = argparse.ArgumentParser(
        prog="shiftlab",
        formatter_class=formatter,
        description="experiments on shift configurations: densities, Besicovitch "
        "pseudometrics, empirical measures, exact transport, and example pipelines",
    )
    parser.add_argument("--version", action="version", version=f"shiftlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text, params in cli.COMMANDS:
        p = sub.add_parser(name, help=help_text, formatter_class=formatter)
        p.add_argument("--config", help="flat key=value parameter file")
        p.add_argument("--out", help="output path (default: stdout)")
        for param in params:
            p.add_argument(f"--{param.key}", help=param.help)
        p.set_defaults(func=handler, params=params)
    return parser
