"""The package's three errors.  Each carries the exit code and the stderr
label that `cli.main` reports it under, so the front end has one handler.
"""


class Error(Exception):
    """The base of the three; never raised itself."""


class UsageError(Error, ValueError):
    """A bad input: an argument outside a computation's domain, an
    unusable config or output file, or work past a fixed limit."""
    exit_code, label = 2, "usage error"


class InvariantError(Error, RuntimeError):
    """A structural law of the engine fails: a malformed term or diagram,
    a broken counting law, a defect not of operator form."""
    exit_code, label = 3, "invariant violation"


class NumericalError(Error, RuntimeError):
    """A quadrature's two resolutions disagree, or a numerical identity
    check fails."""
    exit_code, label = 4, "numerical failure"
