"""Attribute-reduct engine for categorical decision tables.

Builds indiscernibility partitions and the topology bases they generate,
ranks attributes by positive-region significance, and eliminates redundant
attributes while checking every removal against the full-attribute base.  An
exhaustive minimal-subset search is bundled as a verification oracle.

The per-object reference path, :mod:`.partition` and :mod:`.topology`, is
imported when one of its names is first read from this package, so a
``reduct`` run, which never calls it, does not load it.
"""

from .dataset import (
    InformationSystem,
    builtin_names,
    builtin_seven_segment,
    conditional_attributes,
    load_builtin,
    load_csv,
)
from .errors import (
    DuplicateAttribute,
    EmptyAttributeSet,
    EmptyTable,
    MalformedTable,
    NotACover,
    NotInRemaining,
    ReductForgeError,
    TooManyAttributes,
    UniverseMismatch,
    UnknownAttribute,
    UnknownDecision,
)
from .reduct import (
    DEFAULT_MAX_ATTRS,
    ReductResult,
    TraceEntry,
    core_attributes,
    eliminate,
    exhaustive_reducts,
    is_redundant,
)
from .significance import (
    CountSplit,
    SignificanceTable,
    ThresholdSplit,
    rank_attributes,
    significance,
    split_groups,
)

__version__ = "0.1.0"

# The public names that this module binds on first access, and the module
# defining each.
_LAZY = {
    "ObjectSet": "partition",
    "Partition": "partition",
    "decision_partition": "partition",
    "gamma": "partition",
    "ind_partition": "partition",
    "meet": "partition",
    "positive_region": "partition",
    "SetFamily": "topology",
    "base_from_indiscernibility_matrix": "topology",
    "compose_bases": "topology",
    "family_equal": "topology",
    "minimal_neighborhoods": "topology",
    "subbase_of": "topology",
}

__all__ = [
    "DEFAULT_MAX_ATTRS",
    "CountSplit",
    "DuplicateAttribute",
    "EmptyAttributeSet",
    "EmptyTable",
    "InformationSystem",
    "MalformedTable",
    "NotACover",
    "NotInRemaining",
    "ReductForgeError",
    "ReductResult",
    "SignificanceTable",
    "ThresholdSplit",
    "TooManyAttributes",
    "TraceEntry",
    "UniverseMismatch",
    "UnknownAttribute",
    "UnknownDecision",
    "builtin_names",
    "builtin_seven_segment",
    "conditional_attributes",
    "core_attributes",
    "eliminate",
    "exhaustive_reducts",
    "is_redundant",
    "load_builtin",
    "load_csv",
    "rank_attributes",
    "significance",
    "split_groups",
    *_LAZY,
]


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _LAZY.keys())
