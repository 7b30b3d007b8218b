"""Arc diagrams of cyclic permutations and acyclic block diagrams.

A cyclic permutation of [n] draws as n arcs over a line of vertices; its
vertices encode into a word over r/R/k that traces an elevated Motzkin
path (Dyck when keratoid-free), and the word can be inverted back to the
set of permutations that produce it.  Deleting arcs yields acyclic block
diagrams with a six-letter word alphabet, degree vectors, crossing
analysis, and a generator calculus: every block diagram is obtainable
from exactly 2**(m-l) * (m-1)! cyclic permutations.
"""

from .bdiagram import (
    BClassification,
    BDiagram,
    InvalidReason,
    WordCheck,
    add_arc,
    all_bdiagrams,
    block_word,
    classify_bdiagram,
    complement,
    cut_set,
    max_crossing,
    parse_bdiagram,
    remove_arc,
    transpose_labels,
    validate_block_word,
)
from .errors import (
    AlphabetMismatch,
    AlreadyPresent,
    BlockTooLong,
    CapExceeded,
    CapError,
    DegreeExceeded,
    DiagramError,
    EmptyBlock,
    HasKeratoids,
    LengthMismatch,
    NotAGenerator,
    NotAPermutation,
    NotAWord,
    NotNormalized,
    NotPresent,
    NotRepresentable,
    OutOfRange,
    ParseError,
    SizeMismatch,
    TooLarge,
    TooSmall,
    WouldCycle,
)
from .generation import (
    CommonGenerators,
    canonical_generator,
    common_generators,
    complete_table,
    count_generators,
    enumerate_generators,
    generators_oracle,
)
from .inversion import (
    canonical_half,
    classes_from_word,
    count_perms_from_word,
    neighbor_candidates,
    perms_from_word,
    perms_from_word_oracle,
)
from .perm import (
    Arc,
    Classification,
    CycleDiagram,
    CyclicPerm,
    all_cyclic_perms,
    arc_set,
    arc_text,
    classify,
    parse_perm,
)
from .words import (
    StepPath,
    WordPredicates,
    catalan_number,
    check_cycle_word,
    cycle_word,
    degree_vector,
    dyck_parity_word,
    inflate,
    motzkin_number,
    path_steps,
    reindex_word,
    step_groups,
    word_of_classes,
    word_predicates,
)

__version__ = "0.1.0"
