"""Exception types raised by the library."""


class HeadOrderError(Exception):
    """Base class for all library errors."""


class DiagonalNonzero(HeadOrderError):
    def __init__(self, i, value):
        super().__init__(f"diagonal entry m[{i}][{i}] = {value}, must be 0")
        self.index = i
        self.value = value


class TriangleViolation(HeadOrderError):
    def __init__(self, i, j, k):
        super().__init__(
            f"triangle inequality fails: m[{i}][{k}] + m[{k}][{j}] < m[{i}][{j}]"
        )
        self.indices = (i, j, k)


class StepBudgetExceeded(HeadOrderError):
    def __init__(self, max_steps):
        super().__init__(f"no idealizer fixed point within {max_steps} steps")
        self.max_steps = max_steps


class OutOfRange(HeadOrderError):
    pass


class NotACycle(HeadOrderError):
    pass


class NotATree(HeadOrderError):
    pass


class BadRotation(HeadOrderError):
    pass


class NotCoprime(HeadOrderError):
    pass


class TruncationTooSmall(HeadOrderError):
    pass


class OracleCapExceeded(HeadOrderError):
    pass


class SchemaError(HeadOrderError):
    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path
