"""Symbolic Kato graphs of finitely generated discrete subgroups of PGL2.

Builds the quotient graph of groups of such a subgroup from its description
as a graph of groups, by gluing the elementary trees of the finite vertex
groups, and cross-checks every branch-point count against the closed-form
formulas.
"""

from .analysis import (
    BranchPoint,
    BranchSignature,
    Cluster,
    FormulaCensus,
    QuotientSkeleton,
    SeparationPlan,
    StructuralReport,
    branch_points,
    census,
    contract,
    count_cusps_direct,
    cusp_count_char0,
    is_ordinary,
    separation_plan,
    structural_check,
)
from .catalog import (
    AttachmentTrace,
    Catalog,
    CatalogError,
    CuspSite,
    DEFAULT_CATALOG,
    ElementaryTree,
    load_extension_file,
    parse_extension,
)
from .fuzz import random_context, random_input
from .graphs import (
    CheckedInput,
    GenusEdge,
    GraphCusp,
    GraphEdge,
    GraphLoop,
    GraphVertex,
    InputEdge,
    InputGraphOfGroups,
    InputVertex,
    IrreducibleComponent,
    KatoGraph,
    RealizeError,
    ValidationError,
    check_input,
    cusp_count_general,
    genus,
    irreducible_components,
    realize,
    validate_input,
)
from .groups import (
    ContextError,
    FieldContext,
    GroupSymbol,
    ICOSAHEDRAL,
    OCTAHEDRAL,
    PLInvariants,
    SymbolError,
    TETRAHEDRAL,
    TRIVIAL,
    borel,
    borel_extends,
    canonicalize,
    cyclic,
    derive_edge_group,
    dihedral,
    elementary,
    format_symbol,
    is_admissible,
    is_borel_form,
    order,
    pl_invariants,
    proj_linear,
    symbol_contains,
    validate_in_context,
)

__version__ = "0.1.0"
