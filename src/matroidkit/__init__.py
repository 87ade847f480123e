"""matroidkit: finite matroid algorithms with exhaustive desk-scale checking."""

__version__ = "0.1.0"

from .core import (
    AxiomError,
    AxiomReport,
    BoundExceededError,
    Circuit,
    GroundSetError,
    LoopError,
    Matroid,
    MatroidError,
    check_circuit_elimination,
    circuits,
    is_loop_free,
    loops,
    set_literal,
    validate_axioms,
)
from .constructions import (
    GraphSpec,
    TableSpec,
    UniformSpec,
    VectorSpec,
    from_table,
    graphic,
    linear,
    tabulate,
    uniform,
)
from .closure import closure, closure_by_intersection, is_closed
from .contraction import contract, contracted_rank_by_minimization
from .bases import (
    AnchorDecomposition,
    OrderedBase,
    all_bases,
    anchor_classes,
    greedy_base,
    is_base,
    ordered_bases,
)
from .coloring import (
    ChromaticResult,
    ListChromaticResult,
    ListDeficitError,
    chromatic_number,
    color_from_base,
    distinct_color_fallback,
    find_monochromatic_circuit,
    is_list_colorable,
    is_proper,
    list_chromatic_number,
)
from .compactness import (
    BUILTIN_FAMILIES,
    ChainError,
    MatroidChain,
    chain_from_matroids,
    extend_coloring,
    first_uncolorable_level,
)
from .lemmas import LemmaResult, run_lemma_battery
