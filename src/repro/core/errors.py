"""Exception hierarchy for the MDAgent middleware."""


class MiddlewareError(RuntimeError):
    """Base class for middleware failures."""


class ApplicationError(MiddlewareError):
    """Invalid application operation (bad lifecycle, unknown component...)."""


class MigrationError(MiddlewareError):
    """A migration could not be planned or executed."""


class PipelineError(MiddlewareError):
    """A middleware stack cannot be built (e.g. an unknown migration
    protocol)."""


class AdaptationError(MiddlewareError):
    """Post-migration adaptation failed."""


class SnapshotError(MiddlewareError):
    """Snapshot capture/restore failed."""
