"""Exception types shared across the toolkit."""


class PhonosimError(Exception):
    """Base class for all toolkit errors."""


class ParseError(PhonosimError):
    """A file (or line-oriented stream) failed to parse."""

    def __init__(self, message, path=None, line=None):
        self.path = None if path is None else str(path)
        self.line = line
        where = self.path or ""
        if line is not None:
            where = f"{where}:{line}" if where else f"line {line}"
        super().__init__(f"{where}: {message}" if where else message)


class TokenizeError(PhonosimError):
    """An IPA string could not be segmented."""

    def __init__(self, message, offset):
        self.message = message
        self.offset = offset
        super().__init__(f"{message} at offset {offset}")


class UnmatchedGraphemeError(PhonosimError):
    """No G2P rule matched at some position (mode='error')."""

    def __init__(self, grapheme, offset):
        self.grapheme = grapheme
        self.offset = offset
        super().__init__(f"no rule matches {grapheme!r} at offset {offset}")


class DataError(PhonosimError):
    """Semantically invalid data: unknown code, zero vector, bad value."""


class RuleError(DataError):
    """A G2P rule was rejected: `index` is its position in the rule list
    and, for a repeat, `first` the position of the earlier equal rule."""

    def __init__(self, message, index, first=None):
        self.index = index
        self.first = first
        super().__init__(message)


class PipelineError(PhonosimError):
    """A pipeline stage failed; the message names the stage."""

    def __init__(self, stage, message):
        self.stage = stage
        super().__init__(f"[{stage}] {message}")
