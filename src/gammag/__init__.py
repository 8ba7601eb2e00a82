"""Toolkit for finite gamma-indexed AG-groupoids.

Core surface: structures and law checking (core), crisp subsets and
ideal classification (crisp), rational-valued fuzzy subsets and the
sup-min composition (fuzzy), instance-level theorem verification
(theorems), and a small-order model finder (finder). The cli module
exposes all of it as a JSON-emitting command line tool.
"""

from types import ModuleType as _ModuleType

from .core import (
    CapacityError,
    GammaMagma,
    InputError,
    LawReport,
    LawWitness,
    check_laws,
    from_base_with_terms,
    integer_op_eval,
    load_structure,
    structure_from_dict,
)
from .crisp import (
    IDEAL_KINDS,
    CrispSubset,
    IntraWitness,
    classify_subset,
    enumerate_ideals,
    intra_regular_witness,
    is_intra_regular,
    set_product,
)
from .finder import (
    FINDER_PROPERTIES,
    SearchBudgetError,
    SearchSpec,
    enumerate_models,
    find_counterexample_structure,
)
from .fuzzy import (
    FUZZY_KINDS,
    FuzzySubset,
    Lattice,
    characteristic,
    classify_fuzzy,
    gamma_product,
    join,
    leq,
    level_cut,
    meet,
)
from .theorems import (
    REGISTRY,
    REGISTRY_ORDER,
    SemilatticeReport,
    Verdict,
    Violation,
    semilattice_report,
    verify,
    verify_all,
)

# every imported name but the submodules themselves
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]

__version__ = "0.1.0"
