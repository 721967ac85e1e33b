"""repro.lang — script representations (Section 3 of the paper).

Lemmatization, AST → DAG parsing at 1-gram (operation invocation) and
n-gram (statement) granularity, and corpus vocabulary construction.
"""

from .atoms import NGRAM, ONEGRAM, Atom, Edge
from .errors import ScriptError, ScriptParseError, UnsupportedScriptError
from .lemmatize import lemmatize, read_csv_files, split_statements
from .parser import (
    EdgeDelta,
    EdgeState,
    ScriptDAG,
    Statement,
    compute_edge_counts,
    extract_onegrams,
    parse_script,
)
from .notebooks import script_from_notebook, scripts_from_notebook_dir
from .vocabulary import CorpusStats, CorpusVocabulary

__all__ = [
    "NGRAM",
    "ONEGRAM",
    "Atom",
    "CorpusStats",
    "CorpusVocabulary",
    "Edge",
    "EdgeDelta",
    "EdgeState",
    "ScriptDAG",
    "ScriptError",
    "ScriptParseError",
    "Statement",
    "UnsupportedScriptError",
    "compute_edge_counts",
    "extract_onegrams",
    "lemmatize",
    "parse_script",
    "read_csv_files",
    "script_from_notebook",
    "scripts_from_notebook_dir",
    "split_statements",
]
