"""Judgement-aggregation analysis: inconsistency/dependency indices,
boolean-function machinery, and runnable checks of the approximation
bounds relating them."""

from .agenda import (
    AffineAgenda,
    Agenda,
    Conclusion,
    TruthFunctionalAgenda,
    affine_to_truth_functional,
    conjunction_agenda,
    id_agenda,
    preference_agenda,
    relabel_opinions,
    xor_agenda,
)
from .bitfn import (
    BoolFn,
    coalition_mask,
    coalition_members,
    constant,
    dictator,
    distance_uniform,
    expectation,
    ignorability,
    influence,
    junta_projection,
    linear,
    majority,
    oligarchy,
)
from .fourier import FourierSpectrum, character, spectral_sum, transform
from .indices import (
    IndexReport,
    dependency_index,
    dependency_index_max,
    fix_issue_dependency,
    inconsistency_index,
    min_ic_over_conclusion,
)
from .mechanism import (
    IndependentMechanism,
    Mechanism,
    Profile,
    TableMechanism,
    closed_families,
    mech_distance_exact,
    mech_distance_mc,
    perturb,
    systematic,
)
from .oracle import CIFamily, enumerate_ci, nearest_ci, verify_characterization
from .theorems import (
    BoundReport,
    blr_three_function,
    check_boundpi,
    check_granularity,
    check_junta_lemma,
    check_mand,
    check_mxor,
    check_relax,
    sweep_mand,
    sweep_mxor,
)

__version__ = "0.1.0"
