"""Content-addressed shard grouping for the artifact store.

Real-world apps embed largely identical library/framework code (the
paper's Table I corpus is dominated by shared SDKs), so per-app
monolithic artifacts duplicate the same token streams and posting lists
across the whole store.  This module splits one app's disassembly into
**shard groups** — maximal runs of consecutively rendered classes that
share a library prefix — and gives each group a *position-independent*
content key, so two apps embedding the same library hash its group to
the same shard no matter where the library lands in either app's
rendered text.

Position independence is what makes cross-app dedup possible: the raw
rendered lines of a class differ between apps (dexdump-style ``Class
#N`` counters, interned ``// method@NNNN`` ids, absolute addresses), but
the *token stream* the search backends are built from carries none of
that — only signatures, descriptors and literals.  A shard therefore
stores the group's tokens with line numbers relative to the group start,
plus a prefolded mini-index (vocabulary, posting lists, string-token
ids) over those relative lines.

Composition is exact: merging a manifest's shard mini-indexes in render
order, re-basing each shard's relative lines onto the group's recorded
start line, reproduces a freshly built
:class:`~repro.search.backends.indexed.TokenIndex` structure for
structure (the parity suite enforces equality on ``vocab``,
``postings``, ``exact``, ``containing`` and the string-id list).
"""

from __future__ import annotations

import hashlib
import json
import types
from dataclasses import dataclass

from repro.dex.disassembler import Disassembly, LineToken
from repro.search.backends.indexed import TokenIndex

#: The *content-address* version: feeds every app key and shard key.
#: Deliberately decoupled from the store's container FORMAT_VERSION —
#: v3 changed only the shard *encoding* (binary sections instead of
#: JSON), not the logical content, so a v3 rebuild of a v2-era entry
#: lands at the same sha and manifest reference.  Bump this only when
#: the hashed content itself changes (token shapes, line-count
#: semantics), which orphans every stored entry.
KEY_VERSION = 2


def group_label(class_name: str) -> str:
    """The library-fingerprint label of one class.

    The first two dot-separated package segments (``com.lge.app1.Main``
    -> ``com.lge``) — the granularity at which real apps vendor
    libraries.  Classes sharing a label render contiguously (the
    disassembler sorts classes by name, and names under one package
    prefix are lexicographically contiguous), so one label yields one
    group per app.
    """
    parts = class_name.split(".")
    return ".".join(parts[:2]) if len(parts) >= 2 else class_name


@dataclass(frozen=True)
class ShardGroup:
    """One contiguous class group, with group-relative tokens.

    ``tokens`` holds ``(rel_line, kind, text)`` triples where
    ``rel_line = absolute_line - start_line``; identical library code
    yields identical triples in every app that embeds it.
    """

    label: str
    start_line: int
    line_count: int
    tokens: tuple[tuple[int, str, str], ...]

    @property
    def end_line(self) -> int:
        """The exclusive end of the group's line range."""
        return self.start_line + self.line_count

    def canonical_bytes(self) -> bytes:
        """The group's canonical token serialization, computed once.

        One JSON dump of the whole token list: C-speed, and any
        structural ambiguity (kind/text containing separators) is
        handled by JSON string escaping.  Cached on the group object so
        a save that hashes the group and anything downstream that needs
        the same bytes (verification replay) serializes the token list
        exactly once per group.
        """
        cached = self.__dict__.get("_canonical_bytes")
        if cached is None:
            cached = json.dumps(
                self.tokens,  # tuples serialize as JSON arrays
                separators=(",", ":"),
                ensure_ascii=True,
            ).encode("utf-8", "surrogatepass")
            object.__setattr__(self, "_canonical_bytes", cached)
        return cached


def partition_disassembly(disassembly: Disassembly) -> list[ShardGroup]:
    """Split a disassembly into library-prefix shard groups.

    Consecutive :class:`~repro.dex.disassembler.ClassSpan` entries with
    the same :func:`group_label` merge into one group.  A disassembly
    without class spans (hand-built test doubles) degrades to a single
    app-wide group, so every store code path works on any
    :class:`Disassembly` — it just stops deduplicating.
    """
    spans = getattr(disassembly, "class_spans", None) or []
    tokens = disassembly.tokens
    if not spans:
        whole = tuple(
            (t.line_no, t.kind, t.text) for t in tokens
        )
        return [ShardGroup("app", 0, len(disassembly.lines), whole)]

    # Merge consecutive spans sharing a label into (label, start, end).
    ranges: list[list] = []
    for span in spans:
        label = group_label(span.class_name)
        if ranges and ranges[-1][0] == label and ranges[-1][2] == span.start_line:
            ranges[-1][2] = span.end_line
        else:
            ranges.append([label, span.start_line, span.end_line])

    # Tokens are emitted in line order, so one forward sweep assigns
    # each token to its group.
    groups: list[ShardGroup] = []
    cursor = 0
    for label, start, end in ranges:
        rel: list[tuple[int, str, str]] = []
        while cursor < len(tokens) and tokens[cursor].line_no < end:
            token = tokens[cursor]
            if token.line_no >= start:
                rel.append((token.line_no - start, token.kind, token.text))
            cursor += 1
        groups.append(ShardGroup(label, start, end - start, tuple(rel)))
    return groups


def shard_key(group: ShardGroup, key_version: int = KEY_VERSION) -> str:
    """The content address of one shard group.

    Hashes the group's relative token triples, its rendered line count
    (later groups' offsets depend on it) and the :data:`KEY_VERSION` —
    but *not* its label or absolute position, so identical library code
    dedups across apps regardless of where each app renders it, and
    *not* the container format, so a container change rebuilds the
    shard at the same content address.
    """
    digest = hashlib.sha256()
    digest.update(f"backdroid-shard-v{key_version}\n".encode())
    digest.update(str(group.line_count).encode())
    digest.update(b"\n")
    digest.update(group.canonical_bytes())
    return digest.hexdigest()


def fold_group(
    tokens,
) -> tuple[list[str], list[list[int]], list[int], dict[str, list[int]]]:
    """Fold one group's tokens into a mini-index.

    Delegates to :class:`TokenIndex` over the group-relative tokens, so
    there is exactly one authoritative fold in the codebase — shard
    mini-indexes are *by construction* what a fresh index would build
    for the group, and can never drift from it.  Returns ``(vocab,
    postings, string_ids, containing)`` over group-relative lines and
    group-local token ids.
    """
    index = TokenIndex(
        types.SimpleNamespace(
            tokens=[
                LineToken(rel_line, kind, text)
                for rel_line, kind, text in tokens
            ],
            lines=[],
        )
    )
    return index.vocab, index.postings, index._string_ids, index.containing


def shard_payload(group: ShardGroup, key: str, format_version: int) -> dict:
    """The payload published for one shard (the binary container
    encodes exactly these keys; see :mod:`repro.store.binshard`).

    Carries the relative token stream (what ``verify`` re-hashes and
    re-folds) and the prefolded mini-index —
    vocabulary, posting lists, string ids and the local containment map
    (merged into per-app structures without re-folding any token or
    re-running the containment regexes).
    """
    vocab, postings, string_ids, containing = fold_group(group.tokens)
    return {
        "version": format_version,
        "key": key,
        "line_count": group.line_count,
        "tokens": [[rel, kind, text] for rel, kind, text in group.tokens],
        "vocab": vocab,
        "postings": postings,
        "string_ids": string_ids,
        "containing": containing,
    }


def tokens_from_shard(payload: dict) -> tuple[tuple[int, str, str], ...]:
    """The relative token triples a shard payload carries.

    Raises ``KeyError``/``TypeError``/``ValueError`` on shape mismatch
    so the store can classify the shard as corrupt.
    """
    return tuple(
        (int(rel), str(kind), str(text))
        for rel, kind, text in payload["tokens"]
    )


def compose_index(parts: list[tuple[int, dict]]) -> TokenIndex:
    """Merge shard mini-indexes into one app-level :class:`TokenIndex`.

    Groups are merged in manifest (render) order, so the merged
    vocabulary reproduces the global first-appearance order a fresh
    fold would assign; posting lists are re-based per group; and the
    containment map is merged by remapping each shard's local token
    ids and sorting the union — exact because a fresh build's bucket
    for any substring is precisely the ascending list of every token
    id whose text contains it (:func:`_containment_keys` yields each
    substring at most once per token).  The composed index is
    structure-for-structure identical to a fresh build, and reports
    ``restored=True`` / ``build_seconds == 0.0``.

    Raises ``KeyError``/``TypeError``/``ValueError`` on any payload
    shape mismatch, mirroring :meth:`TokenIndex.from_payload`.
    """
    vocab: list[str] = []
    postings: list[list[int]] = []
    string_ids: list[int] = []
    exact: dict[str, int] = {}
    containing_sets: dict[str, set[int]] = {}
    for start_line, payload in parts:
        local_vocab = [str(text) for text in payload["vocab"]]
        local_postings = payload["postings"]
        if len(local_postings) != len(local_vocab):
            raise ValueError("shard postings/vocab length mismatch")
        local_strings = {int(tid) for tid in payload["string_ids"]}
        remap: list[int] = []
        for local_tid, text in enumerate(local_vocab):
            tid = exact.get(text)
            if tid is None:
                tid = len(vocab)
                exact[text] = tid
                vocab.append(text)
                postings.append([])
                if local_tid in local_strings:
                    string_ids.append(tid)
            remap.append(tid)
            posting = postings[tid]
            for rel in local_postings[local_tid]:
                line_no = start_line + int(rel)
                if not posting or posting[-1] != line_no:
                    posting.append(line_no)
        for sub, local_tids in payload["containing"].items():
            bucket = containing_sets.setdefault(str(sub), set())
            for local_tid in local_tids:
                bucket.add(remap[local_tid])

    index = TokenIndex.__new__(TokenIndex)
    index.restored = True
    index.patched_groups = 0
    index.vocab = vocab
    index.postings = postings
    index.exact = exact
    index._string_ids = string_ids
    index.containing = {
        sub: sorted(bucket) for sub, bucket in containing_sets.items()
    }
    index._joined_vocab = None
    index._joined_strings = None
    index.posting_entries = sum(len(p) for p in postings)
    index.build_seconds = 0.0
    return index
