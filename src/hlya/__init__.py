"""Exact rational computations for Hom-Lie-Yamaguti algebras.

Structure constants and axiom checking, cochain spaces with the alternating
and twist-equivariance conditions, the four coboundary operators, low-degree
cohomology, twisted derivations, and truncated one-parameter formal
deformations with gauge equivalence and obstruction analysis.

Public names resolve on first access (PEP 562), so importing the package,
or one command of the CLI, loads only the modules it uses.
"""

from importlib import import_module

_EXPORTS = {
    "algebra": (
        "Algebra",
        "AxiomReport",
        "algebra_from_sparse",
        "check_axioms",
        "eval_binary",
        "eval_ternary",
        "from_lie_algebra",
        "from_lya_standard",
        "is_endomorphism",
        "make_algebra",
        "yau_twist",
    ),
    "coboundary": (
        "CoboundaryMap",
        "apply_operator",
        "d2",
        "delta1",
        "delta2",
        "delta3",
        "operator_by_level",
    ),
    "cochain": ("Cochain", "CochainSpace", "build_cochain_space"),
    "cohomology": (
        "CohomologyReport",
        "cohomology_report",
        "h1",
        "h2h3",
        "h4h5",
        "is_coboundary_2",
        "is_cocycle_2",
    ),
    "deformation": (
        "Deformation",
        "DeformationReport",
        "Gauge",
        "ObstructionPair",
        "ProbeReport",
        "TrivializeResult",
        "apply_gauge",
        "compose_gauges",
        "first_order_deformation",
        "identity_gauge",
        "infinitesimal",
        "inverse_gauge",
        "null_deformation",
        "obstruction_pair",
        "random_gauge",
        "second_order_probe",
        "solve_second_order",
        "trivialize",
        "verify_deformation",
        "verify_equivalence",
    ),
    "derivations": (
        "DerivationSpace",
        "check_der_is_lie",
        "der_bracket",
        "derivation_space",
    ),
    "errors": (
        "ArityError",
        "AxiomError",
        "BaseMismatchError",
        "ClosureViolationError",
        "DimMismatchError",
        "HlyaError",
        "InputError",
        "NotACochainError",
        "NotCocycleError",
        "NotContainedError",
        "NotHomLieError",
        "NotInZ2Z3Error",
        "NotMorphismError",
        "PreconditionError",
        "ShapeMismatchError",
        "TheoremViolationError",
    ),
    "exactlin": (
        "Matrix",
        "Subspace",
        "image_basis",
        "kernel_basis",
        "rank",
        "rat",
        "rat_str",
        "rref",
        "solve",
    ),
    "samples": (
        "abelian",
        "aff1",
        "bundled_algebras",
        "heisenberg_twisted",
        "random_verified_algebra",
        "random_verified_algebras",
        "sl2",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [name for names in _EXPORTS.values() for name in names]
__version__ = "0.1.0"


def __getattr__(name: str):
    """A public name, read from its module, which is imported on first use."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)
