"""The one exception type the library raises.

Every failure of an operation's stated precondition raises
FibreTransportError; the message carries the detail.  Whether a transport
obeys its laws is reported by the law checkers, not by exception types.
"""


class FibreTransportError(Exception):
    """A precondition of a library operation does not hold."""
