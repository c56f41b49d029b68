"""The v3 binary shard container: struct-packed sections over mmap.

A v2-era shard was one JSON document; restoring it cost a full parse
even when the session only ever queried a handful of library groups.
The v3 container packs the same logical content — relative token records, the
vocabulary, posting lists, string-token ids and the containment map —
into independently decodable **sections** behind a fixed header and an
offset table, so a reader can :func:`mmap.mmap` the file and decode
*only the byte ranges a query actually touches*:

* the header + section table (96-odd bytes) identify the shard and
  locate every section;
* the **filter** section (a sorted ``u32`` array of CRC32s over every
  vocabulary text and every containment key) answers "could this group
  possibly contain the needle?" with a zero-copy binary search;
* the **vocabulary blob** answers substring-shaped candidacy with an
  ``mmap.find`` over the raw bytes — no decoding at all;
* only a *candidate* group pays for decoding its mini-index sections.

Every section table entry carries a CRC32 of its section's bytes,
verified on first use — corruption is caught exactly when (and only
when) the damaged bytes would have been trusted, and surfaces as
:class:`ShardCorrupt` so the store can re-fold the group from the live
disassembly (the self-heal path).

Layout (all integers little-endian, no alignment padding)::

    header   <4sHHIIIIII32s>   magic "BDSH", container version,
                               section count, line_count, token_count,
                               vocab_count, string_id_count,
                               containment_count, posting_entries,
                               raw sha256 (the shard's content address)
    table    <HHIQQ> * n       section id, reserved, crc32, offset, length
    sections                   see the per-section codecs below

Section encodings:

* ``VOCAB``       ``u32 lens[vocab_count]`` + concatenated UTF-8 blob
* ``POSTINGS``    ``u32 lens[vocab_count]`` + ``u32 lines[entries]``
* ``STRING_IDS``  ``u32 ids[string_id_count]``
* ``CONTAIN``     ``u32 key_lens[n]`` + ``u32 val_lens[n]`` + keys blob
                  + ``u32 values[sum(val_lens)]``
* ``TOKENS``      ``u8 kind_count`` + (``u8 len`` + bytes) per kind +
                  ``u32 rel_lines[t]`` + ``u8 kind_ids[t]`` +
                  ``u32 text_tids[t]`` (texts dedup through the vocab)
* ``FILTER``      sorted unique ``u32 crc32`` of every vocab text and
                  every containment key

The container version is independent of the *content* addresses (see
:data:`repro.store.sharding.KEY_VERSION`): a container change rebuilds
each shard under the same sha and manifest reference.
"""

from __future__ import annotations

import mmap
import struct
import zlib
from pathlib import Path
from typing import Optional

#: The container version this module writes (the store's v3).
BIN_FORMAT_VERSION = 3

MAGIC = b"BDSH"

_HEADER = struct.Struct("<4sHHIIIIII32s")
_SECTION_ENTRY = struct.Struct("<HHIQQ")

SEC_VOCAB = 1
SEC_POSTINGS = 2
SEC_STRING_IDS = 3
SEC_CONTAIN = 4
SEC_TOKENS = 5
SEC_FILTER = 6

#: Sections whose decode yields the prefolded mini-index (what a lazy
#: group materialization pays for).
MINI_INDEX_SECTIONS = (SEC_VOCAB, SEC_POSTINGS, SEC_STRING_IDS, SEC_CONTAIN)


class ShardCorrupt(Exception):
    """The shard's bytes cannot be trusted (bad magic, bounds, CRC)."""


class ShardStale(ShardCorrupt):
    """A well-formed shard written by a different container version."""


class BinHeader:
    """One decoded header + section table."""

    __slots__ = (
        "line_count", "token_count", "vocab_count", "string_id_count",
        "containment_count", "posting_entries", "sha", "sections",
    )

    def __init__(self, line_count, token_count, vocab_count,
                 string_id_count, containment_count, posting_entries,
                 sha, sections):
        self.line_count = line_count
        self.token_count = token_count
        self.vocab_count = vocab_count
        self.string_id_count = string_id_count
        self.containment_count = containment_count
        self.posting_entries = posting_entries
        #: Hex content address the file claims to hold.
        self.sha = sha
        #: section id -> (crc32, offset, length)
        self.sections = sections

    @property
    def table_bytes(self) -> int:
        """Header + section table size (what any read must decode)."""
        return _HEADER.size + _SECTION_ENTRY.size * len(self.sections)


def read_header(buf) -> BinHeader:
    """Decode and bounds-check the header + section table.

    Raises :class:`ShardCorrupt` on any malformed structure and
    :class:`ShardStale` on a foreign container version.
    """
    size = len(buf)
    if size < _HEADER.size:
        raise ShardCorrupt("file shorter than the shard header")
    (magic, version, section_count, line_count, token_count, vocab_count,
     string_id_count, containment_count, posting_entries,
     sha_raw) = _HEADER.unpack_from(buf, 0)
    if magic != MAGIC:
        raise ShardCorrupt("bad shard magic")
    if version != BIN_FORMAT_VERSION:
        raise ShardStale(f"container version {version}")
    table_end = _HEADER.size + _SECTION_ENTRY.size * section_count
    if size < table_end:
        raise ShardCorrupt("file shorter than its section table")
    sections: dict[int, tuple[int, int, int]] = {}
    for index in range(section_count):
        sec_id, _reserved, crc, offset, length = _SECTION_ENTRY.unpack_from(
            buf, _HEADER.size + _SECTION_ENTRY.size * index
        )
        if offset < table_end or offset + length > size:
            raise ShardCorrupt(f"section {sec_id} out of bounds")
        sections[sec_id] = (crc, offset, length)
    for required in (*MINI_INDEX_SECTIONS, SEC_TOKENS, SEC_FILTER):
        if required not in sections:
            raise ShardCorrupt(f"section {required} missing")
    return BinHeader(line_count, token_count, vocab_count, string_id_count,
                     containment_count, posting_entries, sha_raw.hex(),
                     sections)


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------
def encode_shard(payload: dict, key: str) -> bytes:
    """Pack one shard payload (the :func:`~repro.store.sharding.shard_payload`
    shape) into the v3 container.

    ``key`` is the shard's hex content address; it is embedded raw in
    the header so a reader can reject a renamed/swapped file without
    rehashing the content.
    """
    vocab = [str(text) for text in payload["vocab"]]
    postings = payload["postings"]
    string_ids = [int(tid) for tid in payload["string_ids"]]
    containing = payload["containing"]
    tokens = payload["tokens"]

    vocab_blobs = [text.encode("utf-8", "surrogatepass") for text in vocab]
    sec_vocab = b"".join((
        struct.pack(f"<{len(vocab_blobs)}I", *map(len, vocab_blobs)),
        *vocab_blobs,
    ))

    flat_lines: list[int] = []
    posting_lens: list[int] = []
    for posting in postings:
        posting_lens.append(len(posting))
        flat_lines.extend(int(n) for n in posting)
    sec_postings = (
        struct.pack(f"<{len(posting_lens)}I", *posting_lens)
        + struct.pack(f"<{len(flat_lines)}I", *flat_lines)
    )

    sec_string_ids = struct.pack(f"<{len(string_ids)}I", *string_ids)

    keys = [str(sub).encode("utf-8", "surrogatepass") for sub in containing]
    values: list[int] = []
    val_lens: list[int] = []
    for tids in containing.values():
        val_lens.append(len(tids))
        values.extend(int(t) for t in tids)
    sec_contain = b"".join((
        struct.pack(f"<{len(keys)}I", *map(len, keys)),
        struct.pack(f"<{len(val_lens)}I", *val_lens),
        *keys,
        struct.pack(f"<{len(values)}I", *values),
    ))

    exact = {text: tid for tid, text in enumerate(vocab)}
    kinds: list[str] = []
    kind_ids: dict[str, int] = {}
    rel_lines: list[int] = []
    token_kinds: list[int] = []
    token_tids: list[int] = []
    for rel, kind, text in tokens:
        kind = str(kind)
        kid = kind_ids.get(kind)
        if kid is None:
            kid = len(kinds)
            kind_ids[kind] = kid
            kinds.append(kind)
        rel_lines.append(int(rel))
        token_kinds.append(kid)
        # Every token text is a vocabulary entry by construction (the
        # vocabulary *is* the set of token texts), so records store a
        # u32 id instead of repeating the text.
        token_tids.append(exact[str(text)])
    if len(kinds) > 255:
        raise ValueError("more than 255 token kinds")  # pragma: no cover
    kind_table = bytearray([len(kinds)])
    for kind in kinds:
        blob = kind.encode("utf-8", "surrogatepass")
        if len(blob) > 255:
            raise ValueError("token kind name too long")  # pragma: no cover
        kind_table.append(len(blob))
        kind_table.extend(blob)
    count = len(tokens)
    sec_tokens = b"".join((
        bytes(kind_table),
        struct.pack(f"<{count}I", *rel_lines),
        bytes(token_kinds),
        struct.pack(f"<{count}I", *token_tids),
    ))

    crcs = sorted({
        zlib.crc32(blob) for blob in vocab_blobs
    } | {
        zlib.crc32(blob) for blob in keys
    })
    sec_filter = struct.pack(f"<{len(crcs)}I", *crcs)

    ordered = (
        (SEC_VOCAB, sec_vocab),
        (SEC_POSTINGS, sec_postings),
        (SEC_STRING_IDS, sec_string_ids),
        (SEC_CONTAIN, sec_contain),
        (SEC_TOKENS, sec_tokens),
        (SEC_FILTER, sec_filter),
    )
    table_end = _HEADER.size + _SECTION_ENTRY.size * len(ordered)
    header = _HEADER.pack(
        MAGIC, BIN_FORMAT_VERSION, len(ordered),
        int(payload["line_count"]), count, len(vocab), len(string_ids),
        len(keys), len(flat_lines), bytes.fromhex(key),
    )
    table = bytearray()
    offset = table_end
    for sec_id, blob in ordered:
        table.extend(_SECTION_ENTRY.pack(
            sec_id, 0, zlib.crc32(blob), offset, len(blob)
        ))
        offset += len(blob)
    return b"".join((header, bytes(table), *(blob for _, blob in ordered)))


# ----------------------------------------------------------------------
# Section decoders (shared by the eager and lazy readers)
# ----------------------------------------------------------------------
def _checked(buf, header: BinHeader, sec_id: int) -> tuple[int, int]:
    """The section's (offset, length), CRC-verified."""
    crc, offset, length = header.sections[sec_id]
    if zlib.crc32(buf[offset:offset + length]) != crc:
        raise ShardCorrupt(f"section {sec_id} failed its CRC")
    return offset, length


def _decode_vocab(buf, offset: int, length: int, count: int) -> list[str]:
    if 4 * count > length:
        raise ShardCorrupt("vocab lengths overrun their section")
    lens = struct.unpack_from(f"<{count}I", buf, offset)
    cursor = offset + 4 * count
    if 4 * count + sum(lens) > length:
        raise ShardCorrupt("vocab blob overruns its section")
    vocab: list[str] = []
    try:
        for text_len in lens:
            vocab.append(
                bytes(buf[cursor:cursor + text_len]).decode(
                    "utf-8", "surrogatepass"
                )
            )
            cursor += text_len
    except UnicodeDecodeError as exc:
        raise ShardCorrupt(f"vocab text undecodable: {exc}") from exc
    return vocab


def _decode_postings(
    buf, offset: int, length: int, count: int, entries: int
) -> list[list[int]]:
    if 4 * (count + entries) > length:
        raise ShardCorrupt("posting lists overrun their section")
    lens = struct.unpack_from(f"<{count}I", buf, offset)
    if sum(lens) != entries:
        raise ShardCorrupt("posting lists disagree with the header")
    flat = struct.unpack_from(f"<{entries}I", buf, offset + 4 * count)
    postings: list[list[int]] = []
    cursor = 0
    for posting_len in lens:
        postings.append(list(flat[cursor:cursor + posting_len]))
        cursor += posting_len
    return postings


def _decode_string_ids(buf, offset: int, length: int, count: int) -> list[int]:
    if 4 * count > length:
        raise ShardCorrupt("string ids overrun their section")
    return list(struct.unpack_from(f"<{count}I", buf, offset))


def _decode_containing(
    buf, offset: int, length: int, count: int
) -> dict[str, list[int]]:
    if 8 * count > length:
        raise ShardCorrupt("containment tables overrun their section")
    key_lens = struct.unpack_from(f"<{count}I", buf, offset)
    val_lens = struct.unpack_from(f"<{count}I", buf, offset + 4 * count)
    keys_start = offset + 8 * count
    values_start = keys_start + sum(key_lens)
    total_values = sum(val_lens)
    if values_start + 4 * total_values - offset > length:
        raise ShardCorrupt("containment map overruns its section")
    flat = struct.unpack_from(f"<{total_values}I", buf, values_start)
    containing: dict[str, list[int]] = {}
    cursor = keys_start
    value_cursor = 0
    try:
        for key_len, val_len in zip(key_lens, val_lens):
            sub = bytes(buf[cursor:cursor + key_len]).decode(
                "utf-8", "surrogatepass"
            )
            cursor += key_len
            containing[sub] = list(flat[value_cursor:value_cursor + val_len])
            value_cursor += val_len
    except UnicodeDecodeError as exc:
        raise ShardCorrupt(f"containment key undecodable: {exc}") from exc
    return containing


def _decode_tokens(
    buf, offset: int, length: int, count: int, vocab: list[str]
) -> list[list]:
    end = offset + length
    if offset >= end:
        raise ShardCorrupt("token section empty")
    kind_count = buf[offset]
    cursor = offset + 1
    kinds: list[str] = []
    try:
        for _ in range(kind_count):
            kind_len = buf[cursor]
            cursor += 1
            kinds.append(
                bytes(buf[cursor:cursor + kind_len]).decode(
                    "utf-8", "surrogatepass"
                )
            )
            cursor += kind_len
    except (IndexError, UnicodeDecodeError) as exc:
        raise ShardCorrupt(f"token kind table malformed: {exc}") from exc
    if cursor + 9 * count > end:
        raise ShardCorrupt("token records overrun their section")
    rel_lines = struct.unpack_from(f"<{count}I", buf, cursor)
    cursor += 4 * count
    kind_ids = bytes(buf[cursor:cursor + count])
    cursor += count
    text_tids = struct.unpack_from(f"<{count}I", buf, cursor)
    try:
        return [
            [rel, kinds[kid], vocab[tid]]
            for rel, kid, tid in zip(rel_lines, kind_ids, text_tids)
        ]
    except IndexError as exc:
        raise ShardCorrupt("token record references out of range") from exc


def decode_mini_index(buf, header: BinHeader) -> dict:
    """The prefolded mini-index sections as shard payload keys."""
    off, length = _checked(buf, header, SEC_VOCAB)
    vocab = _decode_vocab(buf, off, length, header.vocab_count)
    off, length = _checked(buf, header, SEC_POSTINGS)
    postings = _decode_postings(
        buf, off, length, header.vocab_count, header.posting_entries
    )
    off, length = _checked(buf, header, SEC_STRING_IDS)
    string_ids = _decode_string_ids(buf, off, length, header.string_id_count)
    off, length = _checked(buf, header, SEC_CONTAIN)
    containing = _decode_containing(buf, off, length, header.containment_count)
    return {
        "vocab": vocab,
        "postings": postings,
        "string_ids": string_ids,
        "containing": containing,
    }


def decode_shard(buf, sha: Optional[str] = None) -> dict:
    """Fully decode one binary shard into the shard payload shape.

    With ``sha`` given, the header's embedded content address must
    match (a renamed or swapped file reads as corrupt).
    Raises :class:`ShardCorrupt`/:class:`ShardStale` as appropriate.
    """
    header = read_header(buf)
    if sha is not None and header.sha != sha:
        raise ShardCorrupt("embedded content address mismatch")
    payload = decode_mini_index(buf, header)
    off, length = _checked(buf, header, SEC_TOKENS)
    payload["tokens"] = _decode_tokens(
        buf, off, length, header.token_count, payload["vocab"]
    )
    payload["version"] = BIN_FORMAT_VERSION
    payload["key"] = header.sha
    payload["line_count"] = header.line_count
    return payload


# ----------------------------------------------------------------------
# The lazy view
# ----------------------------------------------------------------------
class LazyShardView:
    """One mmapped shard file, decoded only where touched.

    The file is opened and mapped on first use; candidacy probes
    (:meth:`may_contain`, :meth:`blob_contains`) read the filter and
    vocabulary-blob byte ranges without building any Python structures,
    and :meth:`mini_index` decodes exactly the four mini-index sections.
    ``bytes_mapped``/``bytes_decoded`` account for what was mapped and
    what was actually decoded — the observables the lazy-restore tests
    and the sustained-traffic benchmark assert on.

    Not thread-safe on its own; the owning
    :class:`~repro.store.lazy.LazyTokenIndex` serializes access.
    """

    def __init__(self, path, sha: str) -> None:
        self.path = Path(path)
        self.sha = sha
        self._file = None
        self._mm: Optional[mmap.mmap] = None
        self._header: Optional[BinHeader] = None
        self._verified: set[int] = set()
        self.bytes_mapped = 0
        self.bytes_decoded = 0

    # ------------------------------------------------------------------
    def _ensure(self) -> BinHeader:
        if self._header is not None:
            return self._header
        try:
            handle = open(self.path, "rb")
        except OSError as exc:
            raise ShardCorrupt(f"shard unreadable: {exc}") from exc
        try:
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except (OSError, ValueError) as exc:
            handle.close()
            raise ShardCorrupt(f"shard unmappable: {exc}") from exc
        self._file = handle
        self._mm = mapped
        self.bytes_mapped += len(mapped)
        try:
            header = read_header(mapped)
        except ShardCorrupt:
            self.reset()
            raise
        if header.sha != self.sha:
            self.reset()
            raise ShardCorrupt("embedded content address mismatch")
        self._header = header
        self.bytes_decoded += header.table_bytes
        return header

    def _section(self, sec_id: int) -> tuple[int, int]:
        """The section's (offset, length), CRC-verified once per map."""
        header = self._ensure()
        if sec_id in self._verified:
            _, offset, length = header.sections[sec_id]
            return offset, length
        offset, length = _checked(self._mm, header, sec_id)
        self._verified.add(sec_id)
        return offset, length

    # ------------------------------------------------------------------
    @property
    def line_count(self) -> int:
        return self._ensure().line_count

    @property
    def posting_entries(self) -> int:
        return self._ensure().posting_entries

    @property
    def vocab_count(self) -> int:
        return self._ensure().vocab_count

    # ------------------------------------------------------------------
    def may_contain(self, crc: int) -> bool:
        """Whether *crc* is in the shard's filter (zero-copy bisect).

        A hit means the needle *may* be a vocabulary text or containment
        key of this group (CRC collisions give false positives, never
        false negatives); a miss proves the group cannot answer an
        exact or containment lookup for it.
        """
        offset, length = self._section(SEC_FILTER)
        mapped = self._mm
        lo, hi = 0, length // 4
        while lo < hi:
            mid = (lo + hi) // 2
            value = struct.unpack_from("<I", mapped, offset + 4 * mid)[0]
            if value < crc:
                lo = mid + 1
            elif value > crc:
                hi = mid
            else:
                return True
        return False

    def blob_contains(self, needle: bytes) -> bool:
        """Whether the raw vocabulary blob contains *needle*.

        A zero-copy ``mmap.find`` over the concatenated text bytes:
        every substring occurrence inside any single vocabulary text is
        found (texts are contiguous), and a match spanning two texts is
        a harmless false positive — the materialized group answers
        exactly.
        """
        offset, length = self._section(SEC_VOCAB)
        blob_start = offset + 4 * self._ensure().vocab_count
        return self._mm.find(needle, blob_start, offset + length) >= 0

    # ------------------------------------------------------------------
    def mini_index(self) -> dict:
        """Decode the four mini-index sections (one group's fault-in)."""
        header = self._ensure()
        payload = decode_mini_index(self._mm, header)
        self.bytes_decoded += sum(
            header.sections[sec_id][2] for sec_id in MINI_INDEX_SECTIONS
        )
        return payload

    def payload(self) -> dict:
        """Fully decode the shard (token records included)."""
        header = self._ensure()
        # decode_shard re-verifies CRCs via _checked; fine — it is the
        # cold full-restore path, not the per-query one.
        payload = decode_shard(self._mm, self.sha)
        self.bytes_decoded += sum(
            length for _, _, length in header.sections.values()
        )
        return payload

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Drop the mapping (e.g. after the file was healed in place)."""
        if self._mm is not None:
            self._mm.close()
            self._mm = None
        if self._file is not None:
            self._file.close()
            self._file = None
        self._header = None
        self._verified.clear()

    close = reset
