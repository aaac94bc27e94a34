"""The command line run in this process: `invoke(args)` is `nhtrack ARGS`
with its output captured."""
from __future__ import annotations

import contextlib
import io
import typing

from nhtrack import cli


class Invocation(typing.NamedTuple):
    exit_code: int
    output: str  # stdout and stderr, in the order they were written
    exception: BaseException | None  # a nonzero exit, or what escaped main


def invoke(args: list[str]) -> Invocation:
    """Run cli.main on args.  Its SystemExit gives the exit code (an
    exception escaping main counts as code 1), and the exit is the
    invocation's exception unless its code is 0."""
    output = io.StringIO()
    try:
        with contextlib.redirect_stdout(output), contextlib.redirect_stderr(output):
            cli.main(args, prog_name="nhtrack")
    except SystemExit as exc:
        code = exc.code or 0
        return Invocation(code, output.getvalue(), exc if code else None)
    except Exception as exc:
        return Invocation(1, output.getvalue(), exc)
    raise AssertionError("cli.main returned instead of raising SystemExit")
