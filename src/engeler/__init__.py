"""Combinatory rewriting plus an Engeler-style graph model: parse and
reduce combinator terms, describe denotations symbolically with templates,
cross-check them against brute-force membership oracles, and run the
companion-element experiments from the command line."""

__version__ = "0.1.0"

from .terms import (  # noqa: F401
    App,
    Atom,
    ParseError,
    Term,
    Var,
    app,
    atom,
    enumerate_s_terms,
    enumerate_terms,
    expand_stdlib,
    parse_term,
    print_term,
    stdlib_lookup,
    term_stats,
    var,
)
from .rewrite import (  # noqa: F401
    BACKEND,
    ReductionTrace,
    contract,
    find_redexes,
    identity_behavior,
    normal_form,
    one_step_reducts,
    reduce,
    reduces_to,
)
