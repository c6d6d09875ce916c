"""Persistence for compiled automata and rulesets.

Construction can dominate end-to-end latency (Table III), so a production
matcher compiles once and ships tables.  DFAs, SFAs and whole compiled
rulesets serialize to a single ``.npz`` (NumPy archive) holding the
transition tables, acceptance, mapping payloads, per-state matched-rule
sets and the byte-class map; loading re-validates every structural
invariant, so a corrupted file raises
:class:`~repro.errors.AutomatonError` instead of producing wrong matches.

Format history: v1 shipped DFA/SFA archives; v2 adds the ``RULESET`` kind
(union DFA + ragged rule sets + rule sources/flags, optional union D-SFA).
Writers emit v2; loaders accept both v1 and v2 archives.
"""

from __future__ import annotations

import io
import json
from typing import Optional, Union

import numpy as np

from repro.automata.dfa import DFA
from repro.automata.sfa import SFA
from repro.errors import AutomatonError
from repro.regex.charclass import ByteClassPartition, CharSet

FORMAT_VERSION = 2

#: Formats this loader understands; DFA/SFA layouts are unchanged between
#: v1 and v2, so both remain loadable.  Rulesets exist only from v2 on.
SUPPORTED_FORMATS = (1, 2)


def _required(data, name: str) -> np.ndarray:
    """Fetch a required archive array, or fail with the module's contract."""
    try:
        return data[name]
    except KeyError:
        raise AutomatonError(f"archive is missing array {name!r}") from None


def _read_meta(data) -> dict:
    try:
        raw = data["meta"]
    except KeyError:
        raise AutomatonError("archive has no metadata record") from None
    try:
        return json.loads(bytes(raw).decode())
    except ValueError as e:
        raise AutomatonError(f"unreadable archive metadata: {e}") from None


def _check_table_width(table: np.ndarray, partition, what: str) -> None:
    """A table must have one column per byte class of its partition.

    A width mismatch is not caught by any range check, yet makes the
    pre-scaled flat-list walk read entries from adjacent state rows —
    silently wrong matches, exactly what this module promises to prevent.
    """
    if partition is not None and table.shape[1] != partition.num_classes:
        raise AutomatonError(
            f"{what} table width {table.shape[1]} != "
            f"{partition.num_classes} byte classes"
        )


def _meta_int(meta: dict, key: str) -> int:
    """Fetch a required integer metadata field, or fail the documented way."""
    try:
        return int(meta[key])
    except (KeyError, TypeError, ValueError):
        raise AutomatonError(
            f"archive metadata field {key!r} is missing or invalid"
        ) from None


def _partition_from_classmap(classmap: np.ndarray) -> ByteClassPartition:
    """Rebuild a partition object from a stored uint8[256] classmap."""
    classmap = np.asarray(classmap, dtype=np.uint8)
    if classmap.shape != (256,):
        raise AutomatonError("classmap must have 256 entries")
    charsets = []
    for idx in np.unique(classmap):
        charsets.append(CharSet.from_bytes(np.nonzero(classmap == idx)[0].tolist()))
    p = ByteClassPartition(charsets)
    if not np.array_equal(p.classmap, classmap):
        # the reconstructed numbering must match the stored one exactly
        raise AutomatonError("classmap is not a canonical partition numbering")
    return p


def save_dfa(dfa: DFA, path_or_file: Union[str, io.IOBase]) -> None:
    """Serialize a DFA to ``.npz``."""
    meta = {"format": FORMAT_VERSION, "kind": "DFA", "initial": int(dfa.initial)}
    arrays = {
        "meta": np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        "table": dfa.table,
        "accept": dfa.accept,
    }
    if dfa.partition is not None:
        arrays["classmap"] = dfa.partition.classmap
    np.savez_compressed(path_or_file, **arrays)


def load_dfa(path_or_file: Union[str, io.IOBase]) -> DFA:
    """Load and re-validate a DFA from ``.npz``."""
    with np.load(path_or_file) as data:
        meta = _read_meta(data)
        if meta.get("kind") != "DFA":
            raise AutomatonError(f"not a DFA archive: {meta.get('kind')!r}")
        if meta.get("format") not in SUPPORTED_FORMATS:
            raise AutomatonError(f"unsupported format version {meta.get('format')}")
        partition = (
            _partition_from_classmap(data["classmap"]) if "classmap" in data else None
        )
        dfa = DFA(
            table=_required(data, "table"),
            initial=_meta_int(meta, "initial"),
            accept=_required(data, "accept"),
            partition=partition,
        )
    _check_table_width(dfa.table, partition, "DFA")
    return dfa


def save_sfa(sfa: SFA, path_or_file: Union[str, io.IOBase]) -> None:
    """Serialize an SFA (D-SFA or N-SFA) to ``.npz``."""
    origin_initial = sfa.origin_initial
    meta = {
        "format": FORMAT_VERSION,
        "kind": "SFA",
        "sfa_kind": sfa.kind,
        "initial": int(sfa.initial),
        "origin_initial": (
            int(origin_initial) if isinstance(origin_initial, int) else list(origin_initial)
        ),
    }
    arrays = {
        "meta": np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        "table": sfa.table,
        "accept": sfa.accept,
        "maps": sfa.maps,
        "origin_final": sfa.origin_final,
    }
    if sfa.partition is not None:
        arrays["classmap"] = sfa.partition.classmap
    np.savez_compressed(path_or_file, **arrays)


def load_sfa(path_or_file: Union[str, io.IOBase]) -> SFA:
    """Load and re-validate an SFA from ``.npz``.

    Beyond shape checks, this verifies the defining SFA property on the
    archive: ``maps[table[f, c]] == step(maps[f], c)`` spot-checked per
    class on the identity state, and the identity payload at ``initial``.
    """
    with np.load(path_or_file) as data:
        meta = _read_meta(data)
        if meta.get("kind") != "SFA":
            raise AutomatonError(f"not an SFA archive: {meta.get('kind')!r}")
        if meta.get("format") not in SUPPORTED_FORMATS:
            raise AutomatonError(f"unsupported format version {meta.get('format')}")
        partition = (
            _partition_from_classmap(data["classmap"]) if "classmap" in data else None
        )
        if "origin_initial" not in meta:
            raise AutomatonError(
                "archive metadata field 'origin_initial' is missing"
            )
        origin_initial = meta["origin_initial"]
        if isinstance(origin_initial, list):
            origin_initial = [int(q) for q in origin_initial]
        sfa_kind = meta.get("sfa_kind")
        if sfa_kind not in ("D-SFA", "N-SFA"):
            raise AutomatonError(
                f"archive metadata field 'sfa_kind' is missing or invalid: "
                f"{sfa_kind!r}"
            )
        sfa = SFA(
            table=_required(data, "table"),
            initial=_meta_int(meta, "initial"),
            accept=_required(data, "accept"),
            maps=_required(data, "maps"),
            kind=sfa_kind,
            origin_initial=origin_initial,
            origin_final=_required(data, "origin_final"),
            partition=partition,
        )
    _check_table_width(sfa.table, partition, "SFA")
    _validate_sfa(sfa)
    return sfa


def save_ruleset(
    ruleset,
    path_or_file: Union[str, io.IOBase],
    include_sfa: Optional[bool] = None,
) -> None:
    """Serialize a compiled :class:`~repro.matching.multi.MultiPatternSet`.

    The archive (format v2, kind ``RULESET``) holds the union DFA, the
    ragged per-state matched-rule sets, and the rule sources with their
    per-rule ignore-case flags — everything :func:`load_ruleset` needs to
    rebuild a scan-ready engine without re-parsing a single rule.  A
    plain ``save_sfa`` of the union automaton would be rule-blind: its
    acceptance collapses "which rules matched" to one bit.

    ``include_sfa`` additionally ships the union D-SFA.  Default
    (``None``): include it only when already built — the D-SFA ``maps``
    payload is ``|S|·|D|`` ints, so for large union automata shipping the
    DFA and rebuilding the D-SFA lazily on load is the cheaper trade.

    The archive format is eager by definition (it *is* the materialized
    tables), so a lazy or sharded ruleset (DESIGN.md §3.11) is frozen
    first — the warm reachable closure is completed and serialized as an
    eager set.  When the closure exceeds the eager state budget the set
    cannot be represented on disk and an :class:`AutomatonError` naming
    the backend is raised; the in-memory set is left usable.
    """
    backend = getattr(ruleset, "backend", "eager")
    if backend != "eager":
        from repro.errors import StateExplosionError

        try:
            ruleset.freeze()
        except StateExplosionError as e:
            raise AutomatonError(
                f"cannot serialize a backend={backend!r} ruleset: freezing "
                f"its automaton exceeded the eager state budget ({e}); "
                f"raise max_dfa_states or keep the set in memory"
            ) from e
    dfa = ruleset.dfa
    if dfa.partition is None:  # pragma: no cover - multi always has one
        raise AutomatonError("ruleset DFA has no byte-class partition")
    if include_sfa is None:
        include_sfa = ruleset._sfa is not None
    offsets = np.zeros(dfa.num_states + 1, dtype=np.int64)
    flat: list = []
    for s, rules in enumerate(ruleset.rule_sets):
        flat.extend(int(r) for r in rules)
        offsets[s + 1] = len(flat)
    meta = {
        "format": FORMAT_VERSION,
        "kind": "RULESET",
        "mode": ruleset.mode,
        "initial": int(dfa.initial),
        "patterns": list(ruleset.patterns),
        "flags": [bool(f) for f in ruleset.rule_flags],
        "has_sfa": bool(include_sfa),
    }
    # §3.13 optimizer provenance: the persisted rule_sets already carry
    # original ids (remapped at compile time), so the archive stays
    # loadable by older readers; the provenance is additive metadata that
    # lets `repro analyze` explain why the tables are smaller than the
    # rule count suggests.
    opt_info = getattr(ruleset, "optimize_info", None)
    if opt_info is not None:
        meta["optimize"] = opt_info.to_meta()
    arrays = {
        "table": dfa.table,
        "accept": dfa.accept,
        "classmap": dfa.partition.classmap,
        "rule_offsets": offsets,
        "rule_indices": np.asarray(flat, dtype=np.int32),
    }
    if include_sfa:
        sfa = ruleset.sfa
        meta["sfa_initial"] = int(sfa.initial)
        arrays.update(
            sfa_table=sfa.table,
            sfa_accept=sfa.accept,
            sfa_maps=sfa.maps,
            sfa_origin_final=sfa.origin_final,
        )
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez_compressed(path_or_file, **arrays)


def load_ruleset(path_or_file: Union[str, io.IOBase]):
    """Load and re-validate a compiled ruleset from ``.npz`` (format ≥ 2).

    Returns a :class:`~repro.matching.multi.MultiPatternSet` ready to
    ``matches``/``finditer``/stream: the union DFA and rule sets come
    straight from the archive, and the union D-SFA is either restored
    (when the archive ships one) or rebuilt lazily on first chunked scan.
    """
    from repro.matching.multi import MultiPatternSet

    with np.load(path_or_file) as data:
        meta = _read_meta(data)
        if meta.get("kind") != "RULESET":
            raise AutomatonError(f"not a ruleset archive: {meta.get('kind')!r}")
        if meta.get("format") not in SUPPORTED_FORMATS:
            raise AutomatonError(f"unsupported format version {meta.get('format')}")
        if meta.get("format") < 2:
            raise AutomatonError("ruleset archives need format version >= 2")
        if "classmap" not in data:
            raise AutomatonError("ruleset archive has no byte-class map")
        partition = _partition_from_classmap(data["classmap"])
        patterns = meta.get("patterns")
        flags = meta.get("flags")
        mode = meta.get("mode")
        if not isinstance(patterns, list) or not patterns:
            raise AutomatonError("ruleset archive has no rule sources")
        if not isinstance(flags, list) or len(flags) != len(patterns):
            raise AutomatonError("per-rule flags do not match the rule count")
        if mode not in ("search", "fullmatch"):
            raise AutomatonError(f"unknown ruleset mode {mode!r}")
        dfa = DFA(
            table=_required(data, "table"),
            initial=_meta_int(meta, "initial"),
            accept=_required(data, "accept"),
            partition=partition,
        )
        _check_table_width(dfa.table, partition, "union DFA")
        offsets = np.asarray(_required(data, "rule_offsets"), dtype=np.int64)
        indices = np.asarray(_required(data, "rule_indices"), dtype=np.int64)
        if (
            offsets.shape != (dfa.num_states + 1,)
            or offsets[0] != 0
            or offsets[-1] != len(indices)
            or (np.diff(offsets) < 0).any()
        ):
            raise AutomatonError("rule_offsets is not a valid ragged index")
        if len(indices) and (indices.min() < 0 or indices.max() >= len(patterns)):
            raise AutomatonError("rule index out of range")
        # Acceptance must agree with per-state rule counts; vectorized —
        # a 200k-state union would otherwise pay a Python loop at load.
        mismatch = dfa.accept.astype(bool) != (np.diff(offsets) > 0)
        if mismatch.any():
            raise AutomatonError(
                "acceptance / rule_sets mismatch at state "
                f"{int(np.nonzero(mismatch)[0][0])}"
            )
        # Slices stay NumPy views; from_components normalizes to tuples
        # (a single conversion pass for the whole archive).
        rule_sets = [
            indices[a:b] for a, b in zip(offsets[:-1], offsets[1:])
        ]
        sfa = None
        if meta.get("has_sfa"):
            sfa = SFA(
                table=_required(data, "sfa_table"),
                initial=_meta_int(meta, "sfa_initial"),
                accept=_required(data, "sfa_accept"),
                maps=_required(data, "sfa_maps"),
                kind="D-SFA",
                origin_initial=_meta_int(meta, "initial"),
                origin_final=_required(data, "sfa_origin_final"),
                partition=partition,
            )
    if sfa is not None:
        _check_table_width(sfa.table, partition, "union D-SFA")
        _validate_sfa(sfa)
        if sfa.origin_size != dfa.num_states:
            raise AutomatonError("union D-SFA origin size != union DFA size")
        if not np.array_equal(sfa.origin_final, dfa.accept):
            raise AutomatonError("union D-SFA origin_final != DFA acceptance")
    optimize_meta = meta.get("optimize")
    if optimize_meta is not None and not isinstance(optimize_meta, dict):
        raise AutomatonError("malformed optimize provenance in archive")
    try:
        return MultiPatternSet.from_components(
            patterns=patterns,
            flags=flags,
            mode=mode,
            partition=partition,
            dfa=dfa,
            rule_sets=rule_sets,
            sfa=sfa,
            optimize_meta=optimize_meta,
        )
    except (KeyError, TypeError, ValueError) as e:
        raise AutomatonError(
            f"malformed optimize provenance in archive: {e}"
        ) from None


def _validate_sfa(sfa: SFA) -> None:
    n = sfa.origin_size
    if sfa.kind == "D-SFA":
        ident = sfa.maps[sfa.initial]
        if not np.array_equal(ident, np.arange(n)):
            raise AutomatonError("initial SFA state is not the identity mapping")
        if sfa.maps.shape[0] != sfa.num_states:
            raise AutomatonError("maps/table state-count mismatch")
        if sfa.maps.size and (sfa.maps.min() < 0 or sfa.maps.max() >= n):
            raise AutomatonError("mapping image out of range")
    else:
        ident = sfa.maps[sfa.initial]
        if not np.array_equal(ident, np.eye(n, dtype=bool)):
            raise AutomatonError("initial SFA state is not the identity mapping")
    if sfa.accept.shape != (sfa.num_states,):
        raise AutomatonError("accept length mismatch")
    if sfa.table.min() < 0 or sfa.table.max() >= sfa.num_states:
        raise AutomatonError("SFA transition target out of range")
