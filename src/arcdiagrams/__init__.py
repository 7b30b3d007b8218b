"""Arc diagrams of cyclic permutations and acyclic block diagrams.

A cyclic permutation of [n] draws as n arcs over a line of vertices; its
vertices encode into a word over r/R/k that traces an elevated Motzkin
path (Dyck when keratoid-free), and the word can be inverted back to the
set of permutations that produce it.  Deleting arcs yields acyclic block
diagrams with a six-letter word alphabet, degree vectors, crossing
analysis, and a generator calculus: every block diagram is obtainable
from exactly 2**(m-l) * (m-1)! cyclic permutations.
"""

import importlib.util
import sys

# each public name, by the submodule that defines it
_NAMES = {
    "bdiagram": """BClassification BDiagram InvalidReason WordCheck add_arc all_bdiagrams
        block_word classify_bdiagram complement cut_set max_crossing parse_bdiagram
        remove_arc transpose_labels validate_block_word""",
    "errors": """AlphabetMismatch AlreadyPresent BlockTooLong CapExceeded CapError
        DegreeExceeded DiagramError EmptyBlock HasKeratoids LengthMismatch NotAGenerator
        NotAPermutation NotAWord NotNormalized NotPresent NotRepresentable OutOfRange
        ParseError SizeMismatch TooLarge TooSmall WouldCycle""",
    "generation": """CommonGenerators canonical_generator common_generators complete_table
        count_generators enumerate_generators generators_oracle""",
    "inversion": """canonical_half count_perms_from_word neighbor_candidates
        perms_from_word perms_from_word_oracle""",
    "perm": """Arc Classification CycleDiagram CyclicPerm Listing all_cyclic_perms arc_set
        arc_text classify parse_perm""",
    "words": """StepPath WordPredicates catalan_number check_cycle_word cycle_word
        degree_vector dyck_parity_word inflate motzkin_number path_steps reindex_word
        step_groups word_of_classes word_predicates""",
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names.split()}
__all__ = list(_MODULE_OF)
__version__ = "0.1.0"

# Every submodule is in sys.modules and on the package from the start, but
# its body runs on first attribute access: a command runs only what it uses.
# In this (alphabetical) order bdiagram, generation and inversion precede
# perm and words in sys.modules, so code that walks sys.modules replacing
# functions (a tracer) loads each before it replaces what that one imports.
for _name in _NAMES:
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(_module)
    globals()[_name] = _module
del _name, _spec, _module


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_MODULE_OF[name]], name)


def __dir__():
    return sorted({*globals(), *__all__})
