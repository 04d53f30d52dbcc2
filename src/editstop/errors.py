"""Exception hierarchy shared across the package."""


class EditStopError(Exception):
    """Base class for all package-specific errors."""


# --- numeric core ---

class DimMismatchError(EditStopError):
    pass


class EmptyInputError(EditStopError):
    pass


class NonPositiveTemperatureError(EditStopError):
    pass


class SupportMismatchError(EditStopError):
    pass


class RankTooLargeError(EditStopError):
    pass


# --- optimizer capture / persistence ---

class ShapeMismatchError(EditStopError):
    pass


class DegenerateVectorError(EditStopError):
    pass


class DuplicateModuleIdError(EditStopError):
    pass


class ArtifactMismatchError(EditStopError):
    """An on-disk artifact is missing, unreadable, unwritable, corrupt or
    does not fit the config; the CLI exits 3 on this class and its
    subclasses."""


class IoFailureError(ArtifactMismatchError):
    pass


class BadMagicError(ArtifactMismatchError):
    pass


class VersionUnsupportedError(ArtifactMismatchError):
    pass


class ChecksumMismatchError(ArtifactMismatchError):
    pass


class TruncatedFileError(ArtifactMismatchError):
    pass


# --- alignment / stability ---

class EmptyVisibleSetError(EditStopError):
    pass


class NonMonotoneVisibleSetError(EditStopError):
    pass


# --- certificates / calibration ---

class WindowTooShortError(EditStopError):
    pass


class NoValidSamplesError(EditStopError):
    pass


class AlphaNotContractiveError(EditStopError):
    pass


class NoAdmissiblePairError(EditStopError):
    pass


# --- token freezing ---

class ProbeUnsupportedError(EditStopError):
    pass


class VisibleSetChangedError(EditStopError):
    pass


# --- toy model / analysis ---

class VocabOverflowError(EditStopError):
    pass


class NoRecordedGraphError(EditStopError):
    pass


class MissingStepError(EditStopError):
    pass


class ScheduleExhaustedError(EditStopError):
    pass


class TrainingDivergedError(EditStopError):
    pass


class TooFewSamplesError(EditStopError):
    pass


# --- harness ---

class ConfigError(EditStopError):
    pass
