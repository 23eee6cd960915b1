"""Exception types shared across the package."""


class CatembedError(Exception):
    """Base class for every error this package raises on purpose."""


class FormatError(CatembedError):
    """Malformed input file. Carries the source name and line number."""

    def __init__(self, message: str, source: str | None = None, lineno: int | None = None):
        self.source = source
        self.lineno = lineno
        loc = ""
        if source is not None:
            loc = source
        if lineno is not None:
            loc = f"{loc}:{lineno}" if loc else f"line {lineno}"
        super().__init__(f"{loc}: {message}" if loc else message)


class CorpusError(CatembedError):
    """Corpus or vocabulary contract violation."""


class HierarchyError(CatembedError):
    """Category-graph contract violation (missing root, dangling child, cycle, unweightable entity, ...)."""


class SamplerError(CatembedError):
    """Negative-sampling contract violation."""


class ConfigError(CatembedError):
    """Invalid training or run configuration."""


class TrainError(CatembedError):
    """Training failed (non-finite loss or broken inputs)."""


class EvalError(CatembedError):
    """Evaluation contract violation (bad k, constant scores, ...)."""
