"""Exception hierarchy for the script-representation layer."""

__all__ = [
    "NoDataFlowError",
    "ScriptError",
    "ScriptParseError",
    "UnsupportedScriptError",
]


class ScriptError(Exception):
    """Base class for script-representation failures."""


class ScriptParseError(ScriptError):
    """The script is not valid Python."""


class UnsupportedScriptError(ScriptError):
    """The script uses constructs outside the supported straight-line class."""


class NoDataFlowError(ScriptError, ValueError):
    """A script or a corpus has no data-flow edges, so RE is undefined.

    Also a ``ValueError``: an undefined score is a bad value as much as a
    bad script, and the beam search discards such candidates alongside
    its other value failures.
    """
