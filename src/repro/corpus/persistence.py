"""On-disk snapshots of a :class:`~repro.corpus.index.CorpusIndex`.

The index snapshot is the one persisted form of the offline phase: it
carries the content-addressed script records, the membership order,
and the directory manifest (per-file sha1 + mtime + size), so a
reloaded index can ``refresh()`` against its corpus directory and
reparse only files whose bytes actually changed.

Everything order-sensitive (successor target lists, position lists,
membership) is stored as JSON arrays, so a load → ``to_vocabulary()``
is bit-identical to the index that was saved.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from typing import Dict, Optional

from .index import CorpusIndex, MembershipIndex, _FileEntry
from .retrieval import RetrievalIndex
from .signatures import signature_from_dict, signature_from_source, signature_to_dict
from .store import ScriptRecord, ScriptStore

__all__ = [
    "save_index",
    "load_index",
    "save_retrieval_index",
    "load_retrieval_index",
    "index_to_dict",
    "index_from_dict",
    "retrieval_index_to_dict",
    "retrieval_index_from_dict",
]

_INDEX_FORMAT_VERSION = 1


def check_format_version(found, supported: int, what: str) -> None:
    """Reject snapshots this build cannot faithfully interpret.

    A *newer* ``format_version`` means the snapshot was written by a
    later build whose schema this one does not know — loading it anyway
    could succeed structurally yet be silently wrong, so the error says
    to upgrade (or rebuild the snapshot).  Anything else that is not the
    supported version is malformed or from a retired format.
    """
    if found == supported:
        return
    if isinstance(found, int) and found > supported:
        raise ValueError(
            f"{what} snapshot has format_version {found}, newer than the "
            f"supported version {supported}: upgrade repro, or rebuild the "
            f"snapshot with this version"
        )
    raise ValueError(
        f"unsupported {what} format version: {found!r} (expected {supported})"
    )


def _snapshot_dialect(payload: dict, what: str) -> str:
    """The snapshot's dialect, upgrading pre-dialect snapshots in place.

    Snapshots written before the dialect subsystem carry no ``dialect``
    field; they are by construction pandas corpora, so they load as
    ``"pandas"`` with a one-line note rather than an error.
    """
    dialect = payload.get("dialect")
    if dialect is None:
        sys.stderr.write(
            f"note: {what} snapshot predates dialect tagging; loading as 'pandas'\n"
        )
        return "pandas"
    return str(dialect)


def _record_to_dict(record: ScriptRecord) -> dict:
    return {
        "source": record.source,
        "n_statements": record.n_statements,
        "edge_counts": [
            [source, target, count]
            for (source, target), count in record.edge_counts.items()
        ],
        "onegram_counts": dict(record.onegram_counts),
        "ngram_counts": dict(record.ngram_counts),
        "successors_by_source": record.successors_by_source,
        "template_slots": {
            sig: [first_df, first_any]
            for sig, (first_df, first_any) in record.template_slots.items()
        },
        "position_lists": record.position_lists,
        "signature": signature_to_dict(record.signature),
    }


def _record_from_dict(
    content_hash: str, payload: dict, dialect: str = "pandas"
) -> ScriptRecord:
    onegram_counts = Counter(payload["onegram_counts"])
    saved_signature = payload.get("signature")
    if saved_signature is not None:
        signature = signature_from_dict(content_hash, saved_signature)
    else:
        # pre-retrieval snapshot: the signature is a pure function of the
        # persisted source + 1-grams, so recompute bit-identically
        signature = signature_from_source(
            content_hash, payload["source"], onegram_counts
        )
    return ScriptRecord(
        content_hash=content_hash,
        source=payload["source"],
        n_statements=int(payload["n_statements"]),
        edge_counts=Counter(
            {(s, t): c for s, t, c in payload["edge_counts"]}
        ),
        onegram_counts=onegram_counts,
        ngram_counts=Counter(payload["ngram_counts"]),
        successors_by_source={
            sig: list(targets)
            for sig, targets in payload["successors_by_source"].items()
        },
        template_slots={
            sig: (slot[0], slot[1]) for sig, slot in payload["template_slots"].items()
        },
        position_lists={
            sig: [float(v) for v in values]
            for sig, values in payload["position_lists"].items()
        },
        signature=signature,
        dialect=dialect,
    )


def index_to_dict(index: MembershipIndex) -> dict:
    """JSON-serializable snapshot: records + membership + manifest.

    Works for any :class:`MembershipIndex` — the snapshot carries only
    membership-layer state (records, member order, manifest), because
    every subclass rebuilds its derived structures by re-admitting the
    members through the live delta path on load.
    """
    return {
        "format_version": _INDEX_FORMAT_VERSION,
        "kind": "retrieval" if isinstance(index, RetrievalIndex) else "corpus",
        "dialect": index.dialect,
        "corpus_dir": index.corpus_dir,
        "n_failures": index.n_failures,
        "members": [
            [script_id, content_hash]
            for script_id, content_hash in index._members.items()
        ],
        "records": {
            content_hash: _record_to_dict(record)
            for content_hash, record in index._records.items()
        },
        "manifest": {
            name: {
                "script_id": entry.script_id,
                "sha1": entry.raw_sha,
                "mtime_ns": entry.mtime_ns,
                "size": entry.size,
            }
            for name, entry in index._files.items()
        },
    }


def _restore_members(index: MembershipIndex, payload: dict, dialect: str) -> None:
    """Re-admit a snapshot's members through the live delta path.

    In saved order, with their saved ids, so every aggregate and
    derived structure is reconstructed by the same code that maintains
    them live — there is no second, drift-prone restore path.
    """
    records: Dict[str, ScriptRecord] = {
        content_hash: _record_from_dict(content_hash, record_payload, dialect)
        for content_hash, record_payload in payload["records"].items()
    }
    for record in records.values():
        index.store.put(record)
    for script_id, content_hash in payload["members"]:
        index._admit(records[content_hash], script_id=int(script_id))
    index.n_failures = int(payload.get("n_failures", 0))
    index.corpus_dir = payload.get("corpus_dir")
    for name, entry in payload.get("manifest", {}).items():
        index._files[name] = _FileEntry(
            script_id=entry["script_id"],
            raw_sha=entry["sha1"],
            mtime_ns=int(entry["mtime_ns"]),
            size=int(entry["size"]),
        )


def index_from_dict(payload: dict, store: Optional[ScriptStore] = None) -> CorpusIndex:
    """Rebuild a :class:`CorpusIndex` from its snapshot, reparsing nothing."""
    check_format_version(
        payload.get("format_version"), _INDEX_FORMAT_VERSION, "corpus index"
    )
    if payload.get("kind", "corpus") != "corpus":
        raise ValueError(
            f"snapshot holds a {payload['kind']!r} index, not a corpus index"
        )
    dialect = _snapshot_dialect(payload, "corpus index")
    index = CorpusIndex(store=store, dialect=dialect)
    _restore_members(index, payload, dialect)
    return index


def retrieval_index_to_dict(index: RetrievalIndex) -> dict:
    """JSON-serializable snapshot of a retrieval pool index."""
    return index_to_dict(index)


def retrieval_index_from_dict(
    payload: dict, store: Optional[ScriptStore] = None
) -> RetrievalIndex:
    """Rebuild a :class:`RetrievalIndex` from its snapshot.

    Signatures ride the persisted records (recomputed when loading a
    pre-retrieval snapshot), so the band buckets and schema postings are
    rebuilt without lemmatizing or parsing anything.
    """
    check_format_version(
        payload.get("format_version"), _INDEX_FORMAT_VERSION, "retrieval index"
    )
    if payload.get("kind", "corpus") != "retrieval":
        raise ValueError(
            f"snapshot holds a {payload.get('kind', 'corpus')!r} index, "
            "not a retrieval index"
        )
    dialect = _snapshot_dialect(payload, "retrieval index")
    index = RetrievalIndex(store=store, dialect=dialect)
    _restore_members(index, payload, dialect)
    return index


def save_index(index: CorpusIndex, path: str) -> None:
    """Write an index snapshot to *path* as JSON."""
    with open(path, "w") as handle:
        json.dump(index_to_dict(index), handle, indent=1)


def load_index(path: str, store: Optional[ScriptStore] = None) -> CorpusIndex:
    """Load a snapshot previously written by :func:`save_index`."""
    with open(path, "r") as handle:
        return index_from_dict(json.load(handle), store=store)


def save_retrieval_index(index: RetrievalIndex, path: str) -> None:
    """Write a retrieval-pool snapshot to *path* as JSON."""
    with open(path, "w") as handle:
        json.dump(retrieval_index_to_dict(index), handle, indent=1)


def load_retrieval_index(path: str, store: Optional[ScriptStore] = None) -> RetrievalIndex:
    """Load a snapshot previously written by :func:`save_retrieval_index`."""
    with open(path, "r") as handle:
        return retrieval_index_from_dict(json.load(handle), store=store)
