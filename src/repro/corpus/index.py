"""Incremental corpus index — the offline phase as a long-lived asset.

Two layers live here.  :class:`MembershipIndex` is the shared membership
engine: an ordered multiset of scripts (insertion order IS the corpus
order) resolved through a content-addressed :class:`ScriptStore`, with
``add_script``/``remove_script``/``refresh`` as pure deltas and a
directory manifest (per-file ``(mtime_ns, size, sha1)``) so a refresh
reparses only files whose bytes actually changed.  Derived state is
delegated to subclass hooks: :class:`CorpusIndex` maintains the exact
``CorpusVocabulary`` sufficient statistics, and
:class:`~repro.corpus.retrieval.RetrievalIndex` maintains LSH band
buckets and schema postings over the same membership contract.

:class:`CorpusIndex` maintains exactly the sufficient statistics that
:class:`~repro.lang.vocabulary.CorpusVocabulary` derives from a corpus —
edge/1-gram/n-gram counters, successor adjacency, statement templates,
relative positions, per-script n-gram frequency — under membership
changes, each costing O(changed script) instead of a full corpus
reparse.

The equivalence contract is *bit-identity*: after any interleaving of
mutations, :meth:`CorpusIndex.to_vocabulary` equals
``CorpusVocabulary.from_scripts(surviving scripts, in index order)`` on
every structure, including the float means of ``relative_positions``
(same values summed in the same order), the ε-smoothed Q(x), and the
tie order of ``ngram_successors`` (Counter insertion order is replayed
from per-script successor lists).  :meth:`verify` audits this the way
``LSConfig.verify_scoring``/``verify_intent`` audit the search engines:
rebuild from scratch, compare exactly, raise on any divergence.

Order-sensitive derived structures (successors, templates, positions)
are rebuilt lazily, per dirty signature, from posting lists — a
membership change touching a script with *k* signatures dirties at most
*k* keys, and untouched keys keep their (still-identical) entries.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, field
from hashlib import sha1
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..lang.errors import ScriptError
from ..lang.vocabulary import CorpusStats, CorpusVocabulary
from .store import ScriptRecord, ScriptStore

__all__ = [
    "CorpusIndex",
    "IndexMismatchError",
    "MembershipIndex",
    "RefreshReport",
    "read_corpus_dir",
]


class IndexMismatchError(RuntimeError):
    """Raised by :meth:`CorpusIndex.verify` when the incrementally
    maintained statistics diverge from a from-scratch rebuild (an index
    bug, never a legitimate runtime condition)."""


@dataclass
class RefreshReport:
    """Outcome of one :meth:`MembershipIndex.refresh` directory scan."""

    scanned: int = 0
    added: int = 0
    changed: int = 0
    removed: int = 0
    unchanged_stat: int = 0  #: skipped on (mtime, size) alone — never read
    unchanged_hash: int = 0  #: re-read but byte-identical — never parsed
    failed: int = 0
    reparsed: int = 0  #: scripts that actually went through the parser
    failed_paths: List[str] = field(default_factory=list)

    def as_dict(self) -> Dict[str, int]:
        return {
            "scanned": self.scanned,
            "added": self.added,
            "changed": self.changed,
            "removed": self.removed,
            "unchanged_stat": self.unchanged_stat,
            "unchanged_hash": self.unchanged_hash,
            "failed": self.failed,
            "reparsed": self.reparsed,
        }


@dataclass
class _FileEntry:
    """Manifest row for one corpus file: staleness keys + its script."""

    script_id: Optional[int]  #: None when the file failed to load/parse
    raw_sha: str
    mtime_ns: int
    size: int


class MembershipIndex:
    """Ordered script membership over a content-addressed store.

    Subclasses override :meth:`_apply` / :meth:`_retract` to maintain
    their derived state as pure deltas; everything about *which* scripts
    are members — ids, ordering, refcounts, per-index strong record
    references, and the stat-scan refresh protocol — lives here once.
    """

    def __init__(
        self, store: Optional[ScriptStore] = None, dialect: Optional[str] = None
    ):
        if store is not None and dialect is not None and store.dialect != dialect:
            raise ValueError(
                f"store dialect {store.dialect!r} does not match "
                f"requested index dialect {dialect!r}"
            )
        self.store = (
            store if store is not None else ScriptStore(dialect=dialect or "pandas")
        )
        #: script_id -> content hash; insertion order IS the corpus order
        self._members: Dict[int, str] = {}
        self._next_id = 0
        #: per-index strong refs (the shared store may be shared/bounded)
        self._records: Dict[str, ScriptRecord] = {}
        self._refcounts: Counter = Counter()
        self.n_failures = 0

        # directory manifest (refresh protocol)
        self.corpus_dir: Optional[str] = None
        self._files: Dict[str, _FileEntry] = {}

    @property
    def dialect(self) -> str:
        """The API dialect every member script was parsed under."""
        return self.store.dialect

    # ------------------------------------------------------------ constructors
    @classmethod
    def from_scripts(
        cls,
        scripts: Iterable[str],
        store: Optional[ScriptStore] = None,
        dialect: Optional[str] = None,
    ) -> "MembershipIndex":
        """Index raw script sources, mirroring
        :meth:`CorpusVocabulary.from_scripts` semantics: unparseable
        scripts are skipped, an all-broken corpus raises ScriptError."""
        index = cls(store=store, dialect=dialect)
        for script in scripts:
            index.add_script(script)
        if not index._members:
            raise ScriptError(
                f"no parseable scripts in corpus ({index.n_failures} failed)"
            )
        return index

    # ------------------------------------------------------------------- sizes
    def __len__(self) -> int:
        return len(self._members)

    @property
    def n_scripts(self) -> int:
        return len(self._members)

    @property
    def n_unique_scripts(self) -> int:
        return len(self._records)

    def script_ids(self) -> List[int]:
        return list(self._members)

    def sources(self) -> List[str]:
        """Lemmatized member sources, in index (corpus) order."""
        return [self._records[h].source for h in self._members.values()]

    def content_hashes(self) -> List[str]:
        return list(self._members.values())

    # --------------------------------------------------------------- mutation
    def add_script(self, raw_source: str) -> Optional[int]:
        """Index one script; returns its id, or None if unparseable."""
        record = self.store.get_or_parse(raw_source)
        if record is None:
            self.n_failures += 1
            return None
        return self._admit(record)

    def add_record(self, record: ScriptRecord) -> int:
        """Admit a prebuilt record through the normal delta path.

        The retrieval layer assembles working corpora this way: top-k
        records (already resident in a store) become a
        :class:`CorpusIndex` without any source text round-trip.
        """
        return self._admit(record)

    def _admit(self, record: ScriptRecord, script_id: Optional[int] = None) -> int:
        """Apply one record's contributions under a new member id.

        ``script_id`` is only passed by the snapshot loader, which must
        preserve saved ids (the manifest references them); live adds
        always allocate the next id, keeping member order = id order.
        """
        if record.dialect != self.dialect:
            raise ValueError(
                f"cannot admit a {record.dialect!r}-dialect script into a "
                f"{self.dialect!r}-dialect index: corpora never mix dialects"
            )
        if script_id is None:
            script_id = self._next_id
        elif script_id in self._members:
            raise ValueError(f"duplicate script id: {script_id}")
        self._next_id = max(self._next_id, script_id + 1)
        self._members[script_id] = record.content_hash
        self._refcounts[record.content_hash] += 1
        self._records.setdefault(record.content_hash, record)
        self._apply(record, script_id)
        return script_id

    def remove_script(self, script_id: int) -> None:
        """Retract one member's contributions (O(changed script))."""
        try:
            content_hash = self._members.pop(script_id)
        except KeyError:
            raise KeyError(f"unknown script id: {script_id}") from None
        record = self._records[content_hash]
        self._refcounts[content_hash] -= 1
        if not self._refcounts[content_hash]:
            del self._refcounts[content_hash]
            del self._records[content_hash]
        self._retract(record, script_id)

    # ------------------------------------------------------------------- hooks
    def _apply(self, record: ScriptRecord, script_id: int) -> None:
        """Fold one new member's contributions into derived state."""

    def _retract(self, record: ScriptRecord, script_id: int) -> None:
        """Retract one removed member's contributions from derived state.

        Runs *after* the membership bookkeeping: when the removed member
        was the last reference to its content hash, the hash is already
        absent from ``_refcounts`` / ``_records``.
        """

    # ----------------------------------------------------------------- refresh
    def refresh(self, corpus_dir: Optional[str] = None) -> RefreshReport:
        """Reconcile the index with a corpus directory, O(changed files).

        The manifest keeps ``(mtime_ns, size, sha1)`` per file: a file
        whose stat signature matches is skipped without being read; one
        whose bytes hash to the recorded sha is touched without being
        parsed; only genuinely new or changed files reach the parser —
        and even those hit the content-addressed store when their
        *lemmatized* text is already known.
        """
        directory = corpus_dir or self.corpus_dir
        if directory is None:
            raise ValueError("no corpus directory: pass corpus_dir or set one")
        self.corpus_dir = directory
        report = RefreshReport()
        parses_before = self.store.counters.parses

        seen: Set[str] = set()
        for name in self._scan(directory):
            report.scanned += 1
            path = os.path.join(directory, name)
            try:
                stat = os.stat(path)
            except OSError:
                continue  # raced deletion; handled as a removal below
            seen.add(name)
            entry = self._files.get(name)
            if (
                entry is not None
                and entry.mtime_ns == stat.st_mtime_ns
                and entry.size == stat.st_size
            ):
                report.unchanged_stat += 1
                continue
            try:
                with open(path, "rb") as handle:
                    raw_bytes = handle.read()
            except OSError:
                continue
            raw_sha = sha1(raw_bytes).hexdigest()
            if entry is not None and entry.raw_sha == raw_sha:
                entry.mtime_ns = stat.st_mtime_ns
                entry.size = stat.st_size
                report.unchanged_hash += 1
                continue
            # genuinely new or changed content
            if entry is not None and entry.script_id is not None:
                self.remove_script(entry.script_id)
            source = self._load_source(name, raw_bytes, report)
            script_id = self.add_script(source) if source is not None else None
            if script_id is None and source is not None:
                report.failed += 1
                report.failed_paths.append(name)
            self._files[name] = _FileEntry(
                script_id=script_id,
                raw_sha=raw_sha,
                mtime_ns=stat.st_mtime_ns,
                size=stat.st_size,
            )
            if entry is None:
                report.added += 1
            else:
                report.changed += 1

        for name in list(self._files):
            if name not in seen:
                entry = self._files.pop(name)
                if entry.script_id is not None:
                    self.remove_script(entry.script_id)
                report.removed += 1

        report.reparsed = self.store.counters.parses - parses_before
        return report

    @staticmethod
    def _scan(directory: str) -> List[str]:
        """Corpus file names (relative), .py then .ipynb, each sorted by
        name: corpus order is semantic (it drives Counter tie order and
        the corpus cache key), so it must not depend on the filesystem."""
        try:
            names = os.listdir(directory)
        except OSError as exc:
            raise ValueError(f"cannot scan corpus directory {directory!r}: {exc}")
        py = sorted(n for n in names if n.endswith(".py"))
        nb = sorted(n for n in names if n.endswith(".ipynb"))
        return py + nb

    @staticmethod
    def _load_source(name: str, raw_bytes: bytes, report: RefreshReport) -> Optional[str]:
        """Decode a corpus file into script text (flattening notebooks)."""
        try:
            text = raw_bytes.decode("utf-8")
        except UnicodeDecodeError:
            report.failed += 1
            report.failed_paths.append(name)
            return None
        if not name.endswith(".ipynb"):
            return text
        import json

        from ..lang.notebooks import script_from_notebook

        try:
            return script_from_notebook(json.loads(text))
        except (ValueError, json.JSONDecodeError):
            report.failed += 1
            report.failed_paths.append(name)
            return None


def read_corpus_dir(directory: str) -> Tuple[List[str], List[str]]:
    """Read a corpus directory by the rules :meth:`MembershipIndex.refresh`
    applies, returning ``(scripts, skipped)``.

    ``scripts`` are the decoded texts (notebooks flattened) in corpus
    order, byte-identical duplicates included; ``skipped`` names every
    file that could not be read or decoded.  Raises ValueError when the
    directory cannot be listed or yields no script.
    """
    report = RefreshReport()
    scripts: List[str] = []
    for name in MembershipIndex._scan(directory):
        try:
            with open(os.path.join(directory, name), "rb") as handle:
                raw_bytes = handle.read()
        except OSError:
            report.failed_paths.append(name)
            continue
        source = MembershipIndex._load_source(name, raw_bytes, report)
        if source is not None:
            scripts.append(source)
    if not scripts:
        raise ValueError(f"no .py or .ipynb scripts found in {directory!r}")
    return scripts, report.failed_paths


class CorpusIndex(MembershipIndex):
    """Exact, incrementally maintained corpus sufficient statistics."""

    def __init__(
        self, store: Optional[ScriptStore] = None, dialect: Optional[str] = None
    ):
        super().__init__(store=store, dialect=dialect)

        # aggregate counters (zero entries pruned on removal)
        self.edge_counts: Counter = Counter()
        self.onegram_counts: Counter = Counter()
        self.ngram_counts: Counter = Counter()
        self._total_statements = 0

        # posting lists: signature -> member ids contributing to it
        self._succ_members: Dict[str, Set[int]] = {}
        self._template_members: Dict[str, Set[int]] = {}
        self._position_members: Dict[str, Set[int]] = {}

        # lazily rebuilt derived structures + their dirty sets
        self._successors: Dict[str, Counter] = {}
        self._templates: Dict[str, str] = {}
        self._positions: Dict[str, float] = {}
        self._dirty_succ: Set[str] = set()
        self._dirty_templates: Set[str] = set()
        self._dirty_positions: Set[str] = set()

    # ------------------------------------------------------------------- hooks
    def _apply(self, record: ScriptRecord, script_id: int) -> None:
        self.edge_counts.update(record.edge_counts)
        self.onegram_counts.update(record.onegram_counts)
        self.ngram_counts.update(record.ngram_counts)
        self._total_statements += record.n_statements

        for sig in record.successors_by_source:
            self._succ_members.setdefault(sig, set()).add(script_id)
            self._dirty_succ.add(sig)
        for sig in record.template_slots:
            self._template_members.setdefault(sig, set()).add(script_id)
            self._dirty_templates.add(sig)
        for sig in record.position_lists:
            self._position_members.setdefault(sig, set()).add(script_id)
            self._dirty_positions.add(sig)

    def _retract(self, record: ScriptRecord, script_id: int) -> None:
        self._subtract(self.edge_counts, record.edge_counts)
        self._subtract(self.onegram_counts, record.onegram_counts)
        self._subtract(self.ngram_counts, record.ngram_counts)
        self._total_statements -= record.n_statements

        for sig in record.successors_by_source:
            self._drop_posting(self._succ_members, sig, script_id)
            self._dirty_succ.add(sig)
        for sig in record.template_slots:
            self._drop_posting(self._template_members, sig, script_id)
            self._dirty_templates.add(sig)
        for sig in record.position_lists:
            self._drop_posting(self._position_members, sig, script_id)
            self._dirty_positions.add(sig)

    @staticmethod
    def _subtract(aggregate: Counter, delta: Counter) -> None:
        aggregate.subtract(delta)
        for key in delta:
            if not aggregate[key]:
                del aggregate[key]

    @staticmethod
    def _drop_posting(postings: Dict[str, Set[int]], sig: str, script_id: int) -> None:
        members = postings.get(sig)
        if members is not None:
            members.discard(script_id)
            if not members:
                del postings[sig]

    # ------------------------------------------------------ derived structures
    def _record_of(self, script_id: int) -> ScriptRecord:
        return self._records[self._members[script_id]]

    def _materialize(self) -> None:
        """Rebuild dirty derived entries, replaying corpus order exactly."""
        for sig in self._dirty_succ:
            members = self._succ_members.get(sig)
            if not members:
                self._successors.pop(sig, None)
                continue
            counter: Counter = Counter()
            for script_id in sorted(members):
                for target in self._record_of(script_id).successors_by_source[sig]:
                    counter[target] += 1
            self._successors[sig] = counter
        self._dirty_succ.clear()

        for sig in self._dirty_templates:
            members = self._template_members.get(sig)
            if not members:
                self._templates.pop(sig, None)
                continue
            ordered = sorted(members)
            # CorpusVocabulary's preference rule resolves to: the first
            # df-assignment occurrence in corpus order if one exists,
            # otherwise the very first occurrence
            template: Optional[str] = None
            for script_id in ordered:
                first_df, _ = self._record_of(script_id).template_slots[sig]
                if first_df is not None:
                    template = first_df
                    break
            if template is None:
                template = self._record_of(ordered[0]).template_slots[sig][1]
            self._templates[sig] = template
        self._dirty_templates.clear()

        for sig in self._dirty_positions:
            members = self._position_members.get(sig)
            if not members:
                self._positions.pop(sig, None)
                continue
            values: List[float] = []
            for script_id in sorted(members):
                values.extend(self._record_of(script_id).position_lists[sig])
            self._positions[sig] = sum(values) / len(values)
        self._dirty_positions.clear()

    # ------------------------------------------------------------------ export
    def to_vocabulary(self) -> CorpusVocabulary:
        """A :class:`CorpusVocabulary` bit-identical to a from-scratch
        ``from_scripts`` build over the surviving scripts (index order).

        The returned object owns fresh copies of every structure, so
        callers may hold it across further index mutations.
        """
        if not self._members:
            raise ValueError("cannot build a vocabulary from an empty corpus")
        self._materialize()
        n = len(self._members)
        return CorpusVocabulary(
            edge_counts=Counter(self.edge_counts),
            onegram_counts=Counter(self.onegram_counts),
            ngram_counts=Counter(self.ngram_counts),
            successors={sig: Counter(c) for sig, c in self._successors.items()},
            onegram_templates=dict(self._templates),
            relative_positions=dict(self._positions),
            n_scripts=n,
            avg_code_lines=self._total_statements / n,
            ngram_script_frequency={
                sig: len(self._position_members[sig]) / n for sig in self.ngram_counts
            },
        )

    def stats(self) -> CorpusStats:
        n = len(self._members)
        return CorpusStats(
            n_scripts=n,
            avg_code_lines=self._total_statements / n if n else 0.0,
            uniq_onegrams=len(self.onegram_counts),
            uniq_ngrams=len(self.ngram_counts),
            uniq_edges=len(self.edge_counts),
        )

    # ------------------------------------------------------------------- audit
    def verify(self) -> None:
        """Audit mode: rebuild from scratch and compare bit-for-bit.

        In the spirit of ``LSConfig.verify_scoring``/``verify_intent``:
        any divergence is an engine bug and raises
        :class:`IndexMismatchError` naming the first structure that
        differs.  O(full corpus reparse) — a debugging tool, not a
        production path.
        """
        if not self._members:
            return
        fresh = CorpusVocabulary.from_scripts(
            self.sources(), dialect=self.store.dialect
        )
        mine = self.to_vocabulary()
        self._compare("edge_counts", mine.edge_counts, fresh.edge_counts)
        self._compare("onegram_counts", mine.onegram_counts, fresh.onegram_counts)
        self._compare("ngram_counts", mine.ngram_counts, fresh.ngram_counts)
        self._compare("total_edges", mine.total_edges, fresh.total_edges)
        self._compare("onegram_templates", mine.onegram_templates, fresh.onegram_templates)
        self._compare(
            "relative_positions", mine.relative_positions, fresh.relative_positions
        )
        # successor tie order feeds GetSteps enumeration: compare the
        # exact Counter item order, not just the multiset
        mine_succ = {s: list(c.items()) for s, c in mine.successors.items()}
        fresh_succ = {s: list(c.items()) for s, c in fresh.successors.items()}
        self._compare("successors", mine_succ, fresh_succ)
        self._compare("stats", mine.stats(), fresh.stats())
        self._compare(
            "ngram_script_frequency",
            mine.ngram_script_frequency,
            fresh.ngram_script_frequency,
        )
        # Q(x) spot equivalence follows from edge_counts/total, but keep
        # the smoothing mass in the contract explicitly
        self._compare("epsilon", mine.epsilon, fresh.epsilon)

    @staticmethod
    def _compare(what: str, mine, fresh) -> None:
        if mine != fresh:
            raise IndexMismatchError(
                f"incremental index diverged from from-scratch rebuild on {what}"
            )
