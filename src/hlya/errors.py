"""Exception hierarchy shared by all modules.

Two families matter to callers: input problems (bad files, dimension
mismatches, violated preconditions) and *theorem violations* -- conditions
that provably cannot occur for a verified algebra, so hitting one means a
bug or corrupted data.  The CLI maps the families to different exit codes.
"""


class HlyaError(Exception):
    """Base class for all errors raised by this package."""


class InputError(HlyaError):
    """Malformed or inconsistent user input."""


class DimMismatchError(InputError):
    pass


class ArityError(InputError):
    pass


class NotHomLieError(InputError):
    """The supplied bracket does not satisfy the twisted Jacobi identity."""


class AxiomError(InputError):
    """A constructed structure fails the defining identities."""


class NotMorphismError(InputError):
    """The supplied map is not an algebra endomorphism."""


class BaseMismatchError(InputError):
    """Deformations/gauges over different base algebras were combined."""


class PreconditionError(InputError):
    """An operation's stated precondition does not hold for the input."""


class NotInZ2Z3Error(PreconditionError):
    """The given pair is not a 2-/3-cocycle pair."""


class TheoremViolationError(HlyaError):
    """A mathematically impossible state: signals a bug, never user error."""


class NotACochainError(TheoremViolationError):
    """A tabulated map violates the cochain conditions it must satisfy.

    The witness is carried as attributes, None where it does not apply:
    ``kind`` is "diagonal", "pair-antisymmetry" or "equivariance" and
    ``basis_tuple`` the 1-based tuple where the condition fails.  An audit
    of a coboundary operator also sets its ``level``, the ``block`` (the
    0-based index of the codomain component) and ``basis_index``, the
    0-based index of the domain basis cochain whose image fails, which is
    the operator matrix's column.
    """

    def __init__(self, message, *, kind=None, basis_tuple=None, level=None, block=None, basis_index=None):
        super().__init__(message)
        self.kind = kind
        self.basis_tuple = basis_tuple
        self.level = level
        self.block = block
        self.basis_index = basis_index


class ShapeMismatchError(TheoremViolationError):
    """Matrices or subspaces the program built itself have incompatible shapes."""


class NotContainedError(TheoremViolationError):
    """A coboundary space escaped its cocycle space."""


class ClosureViolationError(TheoremViolationError):
    """A commutator of derivations left the expected derivation space."""


class NotCocycleError(TheoremViolationError):
    """A leading deformation term failed the cocycle conditions.

    The witness is carried as attributes, None where it does not apply:
    ``step_order`` is the order r of the gauge step ``id - h t^r`` that
    :func:`hlya.deformation.trivialize` was taking; ``equation``, ``order``
    and ``basis_tuple`` (1-based) locate the first deformation equation that
    step broke; ``changed_order`` is the order below r whose coefficient the
    step changed.
    """

    def __init__(self, message, *, step_order=None, equation=None, order=None, basis_tuple=None, changed_order=None):
        super().__init__(message)
        self.step_order = step_order
        self.equation = equation
        self.order = order
        self.basis_tuple = basis_tuple
        self.changed_order = changed_order
