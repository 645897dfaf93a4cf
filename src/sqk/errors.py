"""Structured exceptions. Every validation failure names its first witness."""


class SqkError(Exception):
    """Base class for all structured errors raised by this package."""


class FormatError(SqkError):
    """Malformed input: bad shape, bad tokens, unparsable file."""


class SizeBoundExceeded(SqkError):
    def __init__(self, n: int, bound: int, kind: str = "exhaustive-search"):
        super().__init__(f"order {n} exceeds the {kind} bound {bound}")
        self.n = n
        self.bound = bound


class IndexOutOfRange(SqkError):
    def __init__(self, value, n: int):
        super().__init__(f"element index {value} not in 0..{n - 1}")
        self.value = value
        self.n = n


# group table validation

class NotLatinSquare(SqkError):
    def __init__(self, axis: str, index: int):
        super().__init__(f"{axis} {index} of the product table is not a permutation")
        self.axis = axis
        self.index = index


class NoIdentity(SqkError):
    def __init__(self):
        super().__init__("product table has no two-sided identity element")


class NotAssociative(SqkError):
    def __init__(self, x: int, y: int, z: int):
        super().__init__(f"associativity fails at (x,y,z)=({x},{y},{z})")
        self.triple = (x, y, z)


class NotASubgroup(SqkError):
    def __init__(self, detail: str):
        super().__init__(f"not a subgroup: {detail}")
        self.detail = detail


class ParameterOutOfRange(SqkError):
    pass


# quandle axioms

class AxiomQ1Violated(SqkError):
    def __init__(self, a: int):
        super().__init__(f"idempotence fails: {a}*{a} != {a}")
        self.a = a


class AxiomQ2Violated(SqkError):
    def __init__(self, b: int):
        super().__init__(f"column {b} is not a bijection")
        self.b = b


class AxiomQ3Violated(SqkError):
    def __init__(self, a: int, b: int, c: int):
        super().__init__(f"self-distributivity fails at (a,b,c)=({a},{b},{c})")
        self.triple = (a, b, c)


# good involutions

class NotInvolution(SqkError):
    def __init__(self, a: int):
        super().__init__(f"rho(rho({a})) != {a}")
        self.a = a


class NotEquivariant(SqkError):
    def __init__(self, a: int, b: int):
        super().__init__(f"rho({a}*{b}) != rho({a})*{b}")
        self.pair = (a, b)


class NotDualCompatible(SqkError):
    def __init__(self, a: int, b: int):
        super().__init__(f"{a}*rho({b}) differs from the dual product at ({a},{b})")
        self.pair = (a, b)


class OddOrder(ParameterOutOfRange):
    def __init__(self, n: int):
        super().__init__(f"antipodal involution needs even order, got {n}")
        self.n = n


# coset presentations and decomposition

class PresentationInvalid(SqkError):
    """condition is the first failing one; report, when set, is the whole
    per-condition report it was read from."""

    def __init__(self, condition: str, detail: str = "", report=None):
        msg = f"presentation condition {condition} fails"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
        self.condition = condition
        self.report = report


class NoInversionClosedTransversal(SqkError):
    def __init__(self, class_elements: tuple):
        super().__init__(
            "conjugacy class "
            f"{{{', '.join(map(str, class_elements))}}} is closed under inversion "
            "but contains no involution"
        )
        self.class_elements = tuple(class_elements)


class InternalVerificationFailed(SqkError):
    """A self-check that should hold by construction failed; indicates a bug."""
