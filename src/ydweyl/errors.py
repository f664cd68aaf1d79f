"""Exception types shared across the library.

Undecided-at-cutoff and resource-bound conditions are first-class outcomes,
never silent; they carry enough context to report what was attempted.
Each type also carries the CLI's exit `code` for it and the `label` that
opens its one stderr line, so cli.main reports every one the same way.
"""


class YDWeylError(Exception):
    code, label = 2, ""


class ValidationError(YDWeylError):
    """An input object violates a structural invariant (cocycle, YD axioms, ...)."""
    code, label = 3, "validation failure: "


class UndecidedAtCutoff(YDWeylError):
    """A search (ad-power vanishing, reflection) hit its cutoff without deciding."""
    code, label = 4, "undecided: "


class ResourceBoundError(YDWeylError):
    """A hard resource bound (vertex count, truncation degree) was exceeded."""
    code, label = 5, "resource bound exceeded: "
