"""covcat: exact decision procedures for coverings of k-linear categories.

Decides, over Q or a prime field, whether a linear functor between finite
k-linear categories is a covering, a trivial covering, a Galois covering,
or a universal covering relative to a supplied family of Galois coverings,
via stars, fibre blocks, deck transformations and fibre products.
"""

from .exactalg import FieldSpec, GF, Matrix, QQ, kernel_basis, rank_and_inverse
from .lincat import (
    LinearCategory,
    Quiver,
    ValidationReport,
    category_from_algebra,
    connected_components,
    path_category,
    product_with_set,
    validate_category,
)
from .linfun import (
    LinearFunctor,
    compose,
    functor_equal,
    identity_functor,
    is_isomorphism,
    validate_functor,
)
from .covering import (
    CoveringCertificate,
    CoveringFailure,
    check_covering,
)
from .fibprod import FibreProduct, fibre_product
from .galois import (
    DeckGroup,
    GaloisStatus,
    GaloisVerdict,
    TrivialityResult,
    TrivialityWitness,
    UniversalityCheck,
    UniversalityReport,
    check_universal_against,
    deck_group,
    is_galois,
    is_galois_both,
    is_trivial_covering,
    lift_endofunctor,
    quotient_by_group,
    structure_iso,
)
from .errors import (
    ConstructionError,
    CovcatError,
    DocumentError,
    NotConnectedError,
    NotCoveringError,
)

__version__ = "0.1.0"
