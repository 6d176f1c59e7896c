"""The base class of every error dasl raises for input it rejects.

A `DaslError` blames the input: a theory, a data, config or checkpoint
file, a setting.  `dasl` prints one as an `error:` line and exits 2; any
other exception is a defect and ends in a traceback.
"""


class DaslError(Exception):
    """dasl rejects this input."""


class InvalidValue(DaslError, ValueError):
    """A value outside what dasl accepts; still a `ValueError`."""
