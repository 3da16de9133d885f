"""Order-size pairs and homogeneous sets in uniform hypergraphs.

Exact enumeration kernels and desk-scale verifiers for the constructive side
of order-size Ramsey arguments: stepping-down on explicit colorings, weighted
(m,f)-subset search, prescribed-weight ordered graphs with substitution
certificates, density-homogenization pipelines, distinct-value counters for
the associated cubic forms, and the pattern-tournament constructions.
"""

from .core import (
    Hypergraph,
    OrderedGraph,
    PalettedColoring,
    Tournament,
    complete_hypergraph,
    density,
    empty_hypergraph,
    load_hypergraph,
    read_hg_text,
    save_hypergraph,
    vertex_set,
    write_hg_text,
)
from .errors import (
    Budget,
    BudgetExhausted,
    FactorizationError,
    OrderSizeError,
    SearchFailed,
    ShapeError,
    VerificationError,
)
from .rng import SeededRNG, keyed_coloring
from .search import (
    HomogeneousWitness,
    Star,
    find_stars,
    max_clique,
    max_homogeneous,
    spencer_independent,
)
from .spectrum import (
    SpectrumReport,
    WeightFrame,
    WeightedWitness,
    find_mf_subset,
    find_weighted_mf_subset,
    pattern_weight_exists,
    realize_r_plus_1,
    size_spectrum,
    verify_lift,
    weighted_total,
)
from .stepdown import StepResult, step_once, step_to_pairs
from .hbuilder import (
    DSequence,
    HConstruction,
    build_H,
    d_sequence,
    expand_certificate,
    verify_claim_d,
)
from .structure import (
    HomogenizedFamily,
    MainOutcome,
    MainStructure,
    PairFamily,
    find_pair_chain,
    find_star_chain,
    homogenize_pair_types,
    homogenize_types,
    main_structure,
    no_large_star_subset,
    refine_to_01,
    star_free_subset,
)
from .values import (
    CubicParams,
    GeneralParams,
    ValueCountReport,
    blowup_edge_count,
    blowup_edge_count_mixed,
    count_cubic_values,
    count_general_values,
    count_pair_form_values,
    cubic_form,
    g_r,
    general_form,
    pair_form,
    transform_params,
)
from .blowups import build_pair_family, build_type_family
from .constructions import (
    GrInstance,
    build_gr,
    check_fact_gr,
    cyclic_triangle_3graph,
    cyclic_triangles,
    footnote_example_r3,
    random_hypergraph,
    random_ordered_graph,
    random_tournament,
    scan_counterexample,
)

__version__ = "0.1.0"
