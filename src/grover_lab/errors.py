"""Exception hierarchy. Every error carries a stable machine-readable code."""


class GroverLabError(Exception):
    code = "error"


class InvalidArgumentError(GroverLabError):
    code = "invalid-argument"


class InvalidGeneratorError(GroverLabError):
    code = "invalid-variant"


class TypeMismatchError(GroverLabError):
    code = "type-mismatch"

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class DimensionCapError(GroverLabError):
    code = "cap-exceeded"


class NotClosedError(GroverLabError):
    code = "not-closed"


class NoMatchError(GroverLabError):
    code = "no-match"


class ParseError(GroverLabError):
    code = "parse-error"


class DomainError(GroverLabError):
    code = "domain-error"


class IONotFoundError(GroverLabError):
    code = "io-not-found"
