"""Exception types shared across the package."""


class LoopfockError(Exception):
    pass


class DimensionMismatch(LoopfockError):
    pass


class SingularInput(LoopfockError):
    pass


class NotOrthogonal(LoopfockError):
    pass


class NotSpecialOrthogonal(LoopfockError):
    pass


class NonUniqueImplementer(LoopfockError):
    pass


class NonScalarDefect(LoopfockError):
    pass


class ContractViolation(LoopfockError):
    pass


class NotAveragingReady(LoopfockError):
    pass


class NotClifford(LoopfockError):
    pass


class NotCyclicSeparating(LoopfockError):
    pass


class NotInner(LoopfockError):
    pass


class NotInNormalizer(LoopfockError):
    pass


class ConeViolation(LoopfockError):
    pass


class NotInA(LoopfockError):
    pass


class NotComposable(LoopfockError):
    pass


class EndpointMismatch(LoopfockError):
    pass


class ConfigError(LoopfockError):
    pass
