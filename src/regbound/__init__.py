"""regbound: Castelnuovo-Mumford regularity bounds for homogeneous ideals
over prime fields, checked against the exact regularity (Trung's formula on
one adapted Groebner basis, cross-checked by Koszul homology)."""

from .bounds import (
    BoundReport,
    analyze,
    bound_classical,
    bound_corollary,
    bound_dim_ge2,
    bound_dim_le1,
    cs_recursive_bound,
    phi,
    section_regularities,
)
from .groebner import (
    GenericityError,
    Ideal,
    MonomialIdeal,
    buchberger,
    colon,
    filter_regular_lsop,
    ideal_to_text,
    is_filter_regular,
    msaturate,
    normal_form,
    parse_ideal_text,
    saturate,
)
from .hilbert import (
    HilbertSeries,
    artinian_length,
    dim_and_height,
    hilbert_function,
    hilbert_series,
    length_defect,
    multiplicity,
    section_hf,
)
from .lpp import (
    LppIdeal,
    egh_corollary_bound,
    egh_known_by_degrees,
    lpp_construct,
    lpp_regularity,
    weak_egh_experiment,
)
from .macaulay import MacaulayExpansion, cprime_from_c, expand, green_bound
from .oracle import (
    REG_EMPTY,
    BettiTable,
    betti_table,
    koszul_strand,
    regularity_exact,
    regularity_ideal,
)
from .ring import (
    DEFAULT_PRIME,
    DimensionMismatchError,
    Polynomial,
    PolyRing,
    compare,
    parse_polynomial,
    random_linear_form,
)

__version__ = "0.1.0"
