"""Exception types shared across the package."""


class SemhashError(Exception):
    """Base class for all semhash errors."""


# --- taxonomy parsing / lookup ---

class EmptyInput(SemhashError):
    pass


class CycleDetected(SemhashError):
    pass


class MultipleParents(SemhashError):
    pass


class MultipleRoots(SemhashError):
    pass


class UnknownNode(SemhashError):
    pass


class NotALeaf(SemhashError):
    pass


# --- arrays / model ---

class ShapeMismatch(SemhashError):
    pass


class NonFiniteInput(SemhashError):
    pass


class StaleCache(SemhashError):
    pass


class NonDeterministicLoss(SemhashError):
    pass


# --- losses ---

class BatchTooSmall(SemhashError):
    pass


class LabelOutOfRange(SemhashError):
    pass


# --- data ---

class InvalidShapeParam(SemhashError):
    pass


class UnknownLabel(SemhashError):
    pass


# --- file formats ---

class MalformedFile(SemhashError):
    pass


class VersionMismatch(MalformedFile):
    pass


# --- retrieval / metrics ---

class LengthMismatch(SemhashError):
    pass


class EmptyIndex(SemhashError):
    pass


class KTooLarge(SemhashError):
    pass


class NoRelevantItems(SemhashError):
    pass


# --- training ---

class ConfigError(SemhashError):
    pass


class DivergedLoss(SemhashError):
    pass
