"""Exception types shared across the toolkit.

Every domain failure raises a subclass of :class:`OrdlabError`; the ``code``
attribute is the stable machine-parsable category the CLI prints.
"""


class OrdlabError(Exception):
    code = "error"

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} at position {position}"
        super().__init__(message)
        self.position = position


class ParseError(OrdlabError):
    """Bad surface syntax (ordinals, worms, theory expressions)."""

    code = "parse"


class RangeError(OrdlabError):
    """Value outside the representable or configured range."""

    code = "range"


class ShapeError(OrdlabError):
    """Theory expression outside the shapes the reduction rules cover."""

    code = "unsupported"


class CatalogError(OrdlabError):
    """Unknown name in the theory catalog, or a rule set that misses or
    repeats a transform."""

    code = "catalog"


class WormError(OrdlabError):
    """Invalid worm operation, e.g. dropping a worm that contains 0."""

    code = "worm"


class PredicateError(OrdlabError):
    """Malformed predicate expression."""

    code = "predicate"


class CaptureError(OrdlabError):
    """A formula template would capture a free variable of its input."""

    code = "capture"
