"""Exception and warning types shared across the package."""


class ZoneLdpError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(ZoneLdpError):
    """Invalid experiment or CLI configuration (bad mechanism name, empty grids, ...)."""


class DataError(ZoneLdpError):
    """Base class for errors raised while reading or validating input data."""


class MalformedRow(DataError):
    """A data row could not be parsed.

    Carries the 1-based row number and a short description of the offending cell.
    """

    def __init__(self, row_number: int, detail: str):
        self.row_number = row_number
        self.detail = detail
        super().__init__(f"row {row_number}: {detail}")


class SchemaMismatch(DataError):
    """The file header does not provide the columns the schema promises."""


class InsufficientSignals(ZoneLdpError):
    """A fingerprint has fewer detected access points than the zone key needs."""


class EmptyTable(ZoneLdpError):
    """A zone table with no entries was produced or supplied."""


class DegenerateProbabilities(ZoneLdpError):
    """Perturbation probabilities do not satisfy p > q, so debiasing is impossible."""


class DegenerateRange(ZoneLdpError):
    """A normalized metric was asked for on a constant vector (zero range)."""


class ParamMismatch(ZoneLdpError, ValueError):
    """Reports do not fit the aggregator (malformed field, domain, width, shape)."""


class SingularFitWarning(UserWarning):
    """A decoder could not identify some coordinate and forced it to zero,
    or its fit stopped at the sweep cap before meeting its stopping rule."""
