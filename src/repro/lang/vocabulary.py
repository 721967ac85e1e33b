"""Offline search-space curation (Section 5.1).

Builds, from a script corpus S, the atom vocabulary V_A, the edge
vocabulary V_E' with occurrence counts, the corpus step distribution Q(x),
and the auxiliary structures the online search needs: n-gram successor
adjacency (where may an atom be appended?) and renderable statement
templates for every atom.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from .atoms import NGRAM, ONEGRAM
from .errors import ScriptError
from .parser import ScriptDAG, parse_script

__all__ = ["CorpusVocabulary", "CorpusStats"]

EdgeKey = Tuple[str, str]


@dataclass(frozen=True)
class CorpusStats:
    """Table 3-style corpus statistics."""

    n_scripts: int
    avg_code_lines: float
    uniq_onegrams: int
    uniq_ngrams: int
    uniq_edges: int

    def as_dict(self) -> dict:
        return {
            "Scripts": self.n_scripts,
            "Avg # code lines": round(self.avg_code_lines, 1),
            "Uniq. 1-grams": self.uniq_onegrams,
            "Uniq. n-grams": self.uniq_ngrams,
            "Uniq. edges": self.uniq_edges,
        }


class CorpusVocabulary:
    """V_A, V_E', and Q(x) computed over a corpus of scripts.

    A vocabulary is a value: every structure comes in through the
    constructor and none of it refers back to parsed scripts.
    :meth:`from_scripts` derives it from raw sources (the reference
    build); :meth:`repro.corpus.CorpusIndex.to_vocabulary` derives the
    same values from incrementally maintained statistics.
    """

    def __init__(
        self,
        *,
        edge_counts: Counter,
        onegram_counts: Counter,
        ngram_counts: Counter,
        successors: Dict[str, Counter],
        onegram_templates: Dict[str, str],
        relative_positions: Dict[str, float],
        n_scripts: int,
        avg_code_lines: float,
        ngram_script_frequency: Dict[str, float],
    ):
        if n_scripts < 1:
            raise ValueError("cannot build a vocabulary from an empty corpus")
        self.edge_counts = edge_counts
        self.onegram_counts = onegram_counts
        self.ngram_counts = ngram_counts
        #: n-gram signature -> Counter of n-gram signatures observed to follow it
        self.successors = successors
        #: 1-gram signature -> representative full-statement source
        self.onegram_templates = onegram_templates
        #: n-gram signature -> mean relative position (0=start .. 1=end)
        self.relative_positions = relative_positions
        self.n_scripts = n_scripts
        self.avg_code_lines = avg_code_lines
        #: n-gram signature -> fraction of corpus scripts containing it
        self.ngram_script_frequency = ngram_script_frequency
        self.total_edges = sum(edge_counts.values())

    # ----------------------------------------------------------- constructors
    @classmethod
    def from_scripts(cls, scripts: Iterable[str], dialect=None) -> "CorpusVocabulary":
        """Parse raw script sources (lemmatizing each) into a vocabulary.

        Scripts that fail to parse are skipped — real-world corpora contain
        broken notebooks — but an all-broken corpus raises ScriptError.
        *dialect* (None = pandas) drives lemmatization's call surface.
        """
        dags: List[ScriptDAG] = []
        failures = 0
        for script in scripts:
            try:
                dags.append(parse_script(script, dialect=dialect))
            except ScriptError:
                failures += 1
        if not dags:
            raise ScriptError(f"no parseable scripts in corpus ({failures} failed)")

        edge_counts: Counter = Counter()
        onegram_counts: Counter = Counter()
        ngram_counts: Counter = Counter()
        script_hits: Counter = Counter()
        successors: Dict[str, Counter] = defaultdict(Counter)
        templates: Dict[str, str] = {}
        position_sums: Dict[str, List[float]] = defaultdict(list)
        for dag in dags:
            edge_counts.update(dag.edge_counter())
            onegram_counts.update(dag.onegram_counter())
            ngrams = dag.ngram_counter()
            ngram_counts.update(ngrams)
            script_hits.update(ngrams.keys())
            n = max(len(dag) - 1, 1)
            for stmt in dag.statements:
                position_sums[stmt.ngram.signature].append(stmt.index / n)
                for atom in stmt.onegrams:
                    # prefer a df-assignment statement as the template so a
                    # 1-gram add renders as a standalone, executable line
                    current = templates.get(atom.signature)
                    if current is None or (
                        not current.startswith("df = ") and stmt.source.startswith("df = ")
                    ):
                        templates[atom.signature] = stmt.source
            for edge in dag.inter_edges():
                successors[edge.source][edge.target] += 1
        n_scripts = len(dags)
        return cls(
            edge_counts=edge_counts,
            onegram_counts=onegram_counts,
            ngram_counts=ngram_counts,
            successors=dict(successors),
            onegram_templates=templates,
            relative_positions={
                sig: sum(vals) / len(vals) for sig, vals in position_sums.items()
            },
            n_scripts=n_scripts,
            avg_code_lines=sum(len(dag) for dag in dags) / n_scripts,
            ngram_script_frequency={
                sig: hits / n_scripts for sig, hits in script_hits.items()
            },
        )

    # ------------------------------------------------------------------ sizes
    @property
    def uniq_edges(self) -> int:
        return len(self.edge_counts)

    def stats(self) -> CorpusStats:
        return CorpusStats(
            n_scripts=self.n_scripts,
            avg_code_lines=self.avg_code_lines,
            uniq_onegrams=len(self.onegram_counts),
            uniq_ngrams=len(self.ngram_counts),
            uniq_edges=len(self.edge_counts),
        )

    # ------------------------------------------------------------ distribution
    def q_probability(self, edge: EdgeKey, epsilon: Optional[float] = None) -> float:
        """Q(x) for one edge; unseen edges get the smoothing mass ε."""
        count = self.edge_counts.get(edge, 0)
        if count:
            return count / self.total_edges
        if epsilon is None:
            epsilon = self.epsilon
        return epsilon

    @property
    def epsilon(self) -> float:
        """Smoothing mass for out-of-vocabulary edges (half a count)."""
        return 0.5 / max(self.total_edges, 1)

    def q_distribution(self) -> Dict[EdgeKey, float]:
        return {
            edge: count / self.total_edges for edge, count in self.edge_counts.items()
        }

    # ------------------------------------------------------------- step lookup
    def statement_frequency(self, signature: str) -> float:
        """Fraction of corpus scripts whose DAG contains this n-gram atom."""
        return self.ngram_script_frequency.get(signature, 0.0)

    def ngram_successors(self, signature: str) -> List[Tuple[str, int]]:
        """Statements observed to directly follow *signature*, most common first."""
        return self.successors.get(signature, Counter()).most_common()

    def render_statement(self, gram: str, signature: str) -> Optional[str]:
        """Return source text that realizes an atom as a full statement."""
        if gram == NGRAM:
            return signature if signature in self.ngram_counts else None
        if gram == ONEGRAM:
            return self.onegram_templates.get(signature)
        raise ValueError(f"invalid gram kind: {gram!r}")
