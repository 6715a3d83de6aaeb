#!/usr/bin/env python3
"""cep_lint: deterministic project-invariant linter for cepjoin.

Encodes repository rules that generic static analyzers cannot know.
Every rule is a pure function over the source tree, so a violation is
reproducible on any machine with `python3 tools/cep_lint.py`; CI runs it
as a gate and ctest runs it as `tools_cep_lint`. Unit tests with bad
fixture trees (tools/cep_lint_test.py, tools/lint_fixtures/) prove each
rule actually fires.

Rules
-----
engine-counters-merge
    Every field of EngineCounters (src/runtime/engine.h) must appear in
    MergeDisjoint(); Merge() must special-case events_processed and
    delegate to MergeDisjoint. Every *_bytes field except peak_* must
    appear in CurrentBytes(). A field added to the struct but forgotten
    in a merge silently under-reports shard/DNF aggregates.

metric-names-readme
    Every string constant in namespace metric_names
    (src/obs/pipeline_metrics.h) must appear as a `name` entry in
    README.md's metrics reference table. The table is the public
    contract of the observability surface.

api-layering
    src/api/ must not include engine-internal headers (src/nfa/,
    src/tree/): the session API talks to engines through
    engine/engine_factory.h and runtime/engine.h only, so the engine
    internals stay swappable.

hot-path-alloc
    The hot-path kernel files (src/runtime/predicate_kernels.cc,
    column_buffer.cc, instance_store.cc) must not allocate outside an
    explicit per-file allowlist. Approved entries are amortized member-
    column growth (bounded by live rows, reclaimed by compaction) and
    setup-path configuration; everything else — new/make_unique/local
    containers/stray push_back — is a per-event allocation regression.

raw-mutex
    src/ must use the annotated cepjoin::Mutex / MutexLock / CondVar
    wrappers (src/common/mutex.h), never raw std::mutex &co: libstdc++'s
    types carry no thread-safety capability attributes, so Clang's
    -Wthread-safety cannot check lock protocols through them.

required-guards
    Load-bearing CEPJOIN_GUARDED_BY annotations must stay present:
    deleting one removes the compiler's checking silently (the clang
    build only warns about *annotated* fields), so this rule pins each
    one explicitly. Extend the table when annotating new classes.

codec-manifest
    The CODEC MANIFEST block in src/durable/snapshot_codec.cc lists,
    for each checkpointed class, which data members are serialized and
    which are rebuilt at construction. Every member of those classes
    must appear on exactly one side, and every listed name must still
    exist. A member added to an engine but missing from the manifest is
    the durability bug no test stream is guaranteed to catch: state
    silently absent from checkpoints.
"""

import argparse
import re
import sys
from pathlib import Path

# --------------------------------------------------------------------------
# Shared helpers


class Finding:
    def __init__(self, rule, path, line, message):
        self.rule = rule
        self.path = path
        self.line = line  # 1-based, 0 = whole file
        self.message = message

    def __str__(self):
        loc = f"{self.path}:{self.line}" if self.line else str(self.path)
        return f"{loc}: [{self.rule}] {self.message}"


def read(root, rel):
    path = Path(root) / rel
    if not path.exists():
        return None
    return path.read_text(encoding="utf-8")


def strip_comments(text):
    """Removes // and /* */ comments, preserving line structure so line
    numbers of findings stay accurate. String literals are left alone:
    the rules below only match code tokens."""
    text = re.sub(
        r"/\*.*?\*/",
        lambda m: re.sub(r"[^\n]", " ", m.group(0)),
        text,
        flags=re.S,
    )
    return re.sub(r"//[^\n]*", "", text)


def body_of(text, start_pattern):
    """Returns the brace-balanced body following the first match of
    start_pattern (which must end at or before the opening brace)."""
    m = re.search(start_pattern, text)
    if m is None:
        return None
    i = text.find("{", m.end() - 1)
    if i < 0:
        return None
    depth = 0
    for j in range(i, len(text)):
        if text[j] == "{":
            depth += 1
        elif text[j] == "}":
            depth -= 1
            if depth == 0:
                return text[i + 1 : j]
    return None


# --------------------------------------------------------------------------
# Rule: engine-counters-merge

ENGINE_HEADER = "src/runtime/engine.h"


def check_engine_counters(root):
    findings = []
    text = read(root, ENGINE_HEADER)
    if text is None:
        return [Finding("engine-counters-merge", ENGINE_HEADER, 0, "missing file")]
    code = strip_comments(text)

    struct = body_of(code, r"struct\s+EngineCounters\s*")
    if struct is None:
        return [
            Finding(
                "engine-counters-merge",
                ENGINE_HEADER,
                0,
                "struct EngineCounters not found",
            )
        ]
    fields = re.findall(r"^\s*(?:uint64_t|size_t)\s+(\w+)\s*=", struct, re.M)

    merge_disjoint = body_of(code, r"void\s+EngineCounters::MergeDisjoint\s*\(")
    merge = body_of(code, r"void\s+EngineCounters::Merge\s*\(")
    current_bytes = body_of(struct, r"size_t\s+CurrentBytes\s*\(\s*\)\s*const\s*")

    if merge_disjoint is None:
        findings.append(
            Finding(
                "engine-counters-merge",
                ENGINE_HEADER,
                0,
                "EngineCounters::MergeDisjoint definition not found",
            )
        )
    else:
        for f in fields:
            if not re.search(rf"\b{f}\b", merge_disjoint):
                findings.append(
                    Finding(
                        "engine-counters-merge",
                        ENGINE_HEADER,
                        0,
                        f"field '{f}' missing from MergeDisjoint(): shard/"
                        "partition aggregation would silently drop it",
                    )
                )
    if merge is None:
        findings.append(
            Finding(
                "engine-counters-merge",
                ENGINE_HEADER,
                0,
                "EngineCounters::Merge definition not found",
            )
        )
    else:
        if "events_processed" not in merge or "MergeDisjoint" not in merge:
            findings.append(
                Finding(
                    "engine-counters-merge",
                    ENGINE_HEADER,
                    0,
                    "Merge() must special-case events_processed (same-stream "
                    "position, not a total) and delegate to MergeDisjoint()",
                )
            )
    if current_bytes is None:
        findings.append(
            Finding(
                "engine-counters-merge",
                ENGINE_HEADER,
                0,
                "EngineCounters::CurrentBytes definition not found",
            )
        )
    else:
        for f in fields:
            if f.endswith("_bytes") and not f.startswith("peak_"):
                if not re.search(rf"\b{f}\b", current_bytes):
                    findings.append(
                        Finding(
                            "engine-counters-merge",
                            ENGINE_HEADER,
                            0,
                            f"byte field '{f}' missing from CurrentBytes(): "
                            "the memory gauges would under-report",
                        )
                    )
    return findings


# --------------------------------------------------------------------------
# Rule: metric-names-readme

METRICS_HEADER = "src/obs/pipeline_metrics.h"
README = "README.md"


def check_metric_names(root):
    findings = []
    header = read(root, METRICS_HEADER)
    readme = read(root, README)
    if header is None or readme is None:
        return [
            Finding(
                "metric-names-readme",
                METRICS_HEADER if header is None else README,
                0,
                "missing file",
            )
        ]
    ns = body_of(strip_comments(header), r"namespace\s+metric_names\s*")
    if ns is None:
        return [
            Finding(
                "metric-names-readme",
                METRICS_HEADER,
                0,
                "namespace metric_names not found",
            )
        ]
    flat = re.sub(r"\s+", " ", ns)
    names = re.findall(r'char\s+k\w+\[\]\s*=\s*"([^"]+)"', flat)
    if not names:
        return [
            Finding(
                "metric-names-readme",
                METRICS_HEADER,
                0,
                "no metric name constants found in namespace metric_names",
            )
        ]
    for name in names:
        if f"`{name}`" not in readme:
            findings.append(
                Finding(
                    "metric-names-readme",
                    README,
                    0,
                    f"metric '{name}' (metric_names, {METRICS_HEADER}) has no "
                    "row in README.md's metrics reference table",
                )
            )
    return findings


# --------------------------------------------------------------------------
# Rule: api-layering

API_DIR = "src/api"
FORBIDDEN_INCLUDE_PREFIXES = ("nfa/", "tree/")


def check_api_layering(root):
    findings = []
    api = Path(root) / API_DIR
    if not api.is_dir():
        return [Finding("api-layering", API_DIR, 0, "missing directory")]
    for path in sorted(api.rglob("*")):
        if path.suffix not in (".h", ".cc"):
            continue
        rel = path.relative_to(root)
        for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            m = re.match(r'\s*#include\s+"([^"]+)"', line)
            if m and m.group(1).startswith(FORBIDDEN_INCLUDE_PREFIXES):
                findings.append(
                    Finding(
                        "api-layering",
                        rel,
                        i,
                        f'src/api/ must not include engine-internal header '
                        f'"{m.group(1)}" — go through engine/engine_factory.h '
                        "or runtime/engine.h",
                    )
                )
    return findings


# --------------------------------------------------------------------------
# Rule: hot-path-alloc

HOT_PATH_FILES = (
    "src/runtime/predicate_kernels.cc",
    "src/runtime/column_buffer.cc",
    "src/runtime/instance_store.cc",
)

# Heap-allocating constructs a hot-path kernel file may not contain.
FORBIDDEN_ALLOC = [
    (re.compile(r"\bnew\b"), "operator new"),
    (re.compile(r"\b(?:malloc|calloc|realloc)\s*\("), "malloc-family call"),
    (re.compile(r"\bmake_(?:unique|shared)\b"), "make_unique/make_shared"),
    # By-value declaration of a heap-backed container (locals and
    # by-value parameters). References and pointers are fine.
    (
        re.compile(
            r"std::(?:vector|deque|map|unordered_map|set|unordered_set|string"
            r"|function)\s*(?:<[^<>]*(?:<[^<>]*>)?[^<>]*>)?\s+\w+\s*[;={(,)]"
        ),
        "by-value container/string/function object",
    ),
    (
        re.compile(r"\.\s*(?:push_back|emplace_back|emplace|resize|reserve|insert|assign)\s*\("),
        "growing container call",
    ),
]

# Approved allocation sites: (file, compiled regex the *stripped* line
# must match). Each entry documents why the allocation is acceptable.
APPROVED_ALLOC = {
    # Amortized member-column growth: bounded by live buffered rows,
    # reclaimed by front-eviction + compaction; provably <= 1 realloc
    # per doubling, never per event.
    "src/runtime/column_buffer.cc": [
        re.compile(
            r"(?:for \(auto& col : attr_cols_\)\s*)?"
            r"(?:events_|ts_|serials_|partitions_|partition_seqs_"
            r"|attr_cols_(?:\[a\])?|attr_ptrs_|col)\s*\.\s*"
            r"(?:push_back|resize)\s*\("
        ),
    ],
    # Same amortized-column argument for the instance-store extent
    # mirrors; Configure() runs once per tree node at plan build time
    # (setup path), so its by-value parameter and resize are fine.
    "src/runtime/instance_store.cc": [
        re.compile(
            r"(?:min_ts_|max_ts_|buffers_)\s*\.\s*(?:push_back|resize)\s*\("
        ),
        re.compile(r"void\s+InstanceStore::Configure\s*\(\s*std::vector<"),
        re.compile(r"std::vector<InstanceStoreColumn>\s+columns\s*[;)]"),
    ],
    # predicate_kernels.cc: nothing — the span evaluators must stay
    # allocation-free end to end.
    "src/runtime/predicate_kernels.cc": [],
}


def check_hot_path_alloc(root):
    findings = []
    for rel in HOT_PATH_FILES:
        text = read(root, rel)
        if text is None:
            findings.append(Finding("hot-path-alloc", rel, 0, "missing file"))
            continue
        approved = APPROVED_ALLOC.get(rel, [])
        for i, line in enumerate(strip_comments(text).splitlines(), 1):
            for pattern, what in FORBIDDEN_ALLOC:
                if not pattern.search(line):
                    continue
                if any(a.search(line) for a in approved):
                    continue
                findings.append(
                    Finding(
                        "hot-path-alloc",
                        rel,
                        i,
                        f"{what} in hot-path kernel file (not on the approved "
                        f"list): {line.strip()}",
                    )
                )
                break  # one finding per line is enough
    return findings


# --------------------------------------------------------------------------
# Rule: raw-mutex

MUTEX_HEADER = "src/common/mutex.h"
RAW_MUTEX = re.compile(
    r"std::(?:mutex|shared_mutex|recursive_mutex|timed_mutex|condition_variable"
    r"(?:_any)?|lock_guard|unique_lock|scoped_lock|shared_lock)\b"
)


def check_raw_mutex(root):
    findings = []
    src = Path(root) / "src"
    if not src.is_dir():
        return [Finding("raw-mutex", "src", 0, "missing directory")]
    for path in sorted(src.rglob("*")):
        if path.suffix not in (".h", ".cc"):
            continue
        rel = path.relative_to(root)
        if str(rel).replace("\\", "/") == MUTEX_HEADER:
            continue  # the wrapper itself owns the std types
        stripped = strip_comments(path.read_text(encoding="utf-8"))
        for i, line in enumerate(stripped.splitlines(), 1):
            m = RAW_MUTEX.search(line)
            if m:
                findings.append(
                    Finding(
                        "raw-mutex",
                        rel,
                        i,
                        f"raw {m.group(0)} — use the annotated cepjoin::Mutex/"
                        "MutexLock/CondVar (common/mutex.h) so clang "
                        "-Wthread-safety can check the lock protocol",
                    )
                )
    return findings


# --------------------------------------------------------------------------
# Rule: required-guards

# (file, field, mutex): the field's declaration must carry
# CEPJOIN_GUARDED_BY(mutex). The clang -Wthread-safety build checks that
# *annotated* fields are accessed under their lock; it cannot object to a
# deleted annotation, so this table makes each one load-bearing.
REQUIRED_GUARDS = [
    ("src/parallel/bounded_queue.h", "items_", "mu_"),
    ("src/parallel/bounded_queue.h", "closed_", "mu_"),
    ("src/obs/metrics.h", "entries_", "mu_"),
    ("src/obs/metrics.h", "index_", "mu_"),
    ("src/parallel/concurrent_sink.h", "outbox_", "outbox_mu_"),
]


def check_required_guards(root):
    findings = []
    for rel, field, mutex in REQUIRED_GUARDS:
        text = read(root, rel)
        if text is None:
            findings.append(Finding("required-guards", rel, 0, "missing file"))
            continue
        flat = re.sub(r"\s+", " ", strip_comments(text))
        if not re.search(
            rf"\b{field}\b\s*CEPJOIN_GUARDED_BY\s*\(\s*{mutex}\s*\)", flat
        ):
            findings.append(
                Finding(
                    "required-guards",
                    rel,
                    0,
                    f"field '{field}' must be annotated "
                    f"CEPJOIN_GUARDED_BY({mutex}) — deleting the annotation "
                    "silently disables the compile-time lock check",
                )
            )
    return findings


# --------------------------------------------------------------------------
# Rule: codec-manifest

CODEC_FILE = "src/durable/snapshot_codec.cc"

# Class name -> (header declaring it, declaration keyword). The manifest
# block must carry a `serialized` list for each; engines also carry a
# `rebuilt` list. `counters_` lives in the Engine base class
# (src/runtime/engine.h), so base members count as declared too.
CODEC_CLASSES = {
    "EngineCounters": ("src/runtime/engine.h", "struct"),
    "NfaEngine": ("src/nfa/nfa_engine.h", "class"),
    "TreeEngine": ("src/tree/tree_engine.h", "class"),
}
ENGINE_BASE_HEADER = "src/runtime/engine.h"


def parse_codec_manifest(text):
    """Returns {(class, side): [names]} from the CODEC MANIFEST comment
    block, or None if the block is missing. A list entry starts at a
    `codec-manifest: <Class> <side> = ...` line and continues over
    indented comment lines containing only identifiers."""
    m = re.search(r"=====\s*CODEC MANIFEST\s*=+(.*?)\n//\s*=====", text, re.S)
    if m is None:
        return None
    entries = {}
    current = None
    for raw in m.group(1).splitlines():
        line = re.sub(r"^\s*//", "", raw)
        head = re.match(
            r"\s*codec-manifest:\s*(\w+)\s+(serialized|rebuilt)\s*=\s*(.*)",
            line,
        )
        if head:
            current = (head.group(1), head.group(2))
            entries[current] = re.findall(r"\w+", head.group(3))
        elif current and line.strip() and re.fullmatch(r"[\w\s]+", line):
            entries[current].extend(re.findall(r"\w+", line))
        else:
            current = None
    return entries


def _strip_nested_braces(body):
    """Drops every brace-enclosed region (nested structs, inline method
    bodies, brace initializers), leaving only class-scope declarations."""
    out = []
    depth = 0
    for ch in body:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
        elif depth == 0:
            out.append(ch)
    return "".join(out)


def _class_members(root, rel, kind, name):
    text = read(root, rel)
    if text is None:
        return None
    body = body_of(strip_comments(text), rf"{kind}\s+{name}\b[^;{{]*")
    if body is None:
        return None
    top = _strip_nested_braces(body)
    if name == "EngineCounters":
        return re.findall(r"(?:uint64_t|size_t)\s+(\w+)\s*=", top)
    return re.findall(r"\b([A-Za-z]\w*_)\s*(?:=[^;]*)?;", top)


def check_codec_manifest(root):
    findings = []
    codec = read(root, CODEC_FILE)
    if codec is None:
        return [Finding("codec-manifest", CODEC_FILE, 0, "missing file")]
    manifest = parse_codec_manifest(codec)
    if manifest is None:
        return [
            Finding(
                "codec-manifest",
                CODEC_FILE,
                0,
                "CODEC MANIFEST block not found — the serialized/rebuilt "
                "member lists are the checkpoint format's change detector",
            )
        ]
    base_members = set(
        _class_members(root, ENGINE_BASE_HEADER, "class", "Engine") or []
    )
    for cls, (rel, kind) in CODEC_CLASSES.items():
        serialized = manifest.get((cls, "serialized"))
        if serialized is None:
            findings.append(
                Finding(
                    "codec-manifest",
                    CODEC_FILE,
                    0,
                    f"manifest has no 'serialized' list for {cls}",
                )
            )
            continue
        rebuilt = manifest.get((cls, "rebuilt"), [])
        listed = serialized + rebuilt
        members = _class_members(root, rel, kind, cls)
        if members is None:
            findings.append(
                Finding(
                    "codec-manifest", rel, 0, f"{kind} {cls} not found"
                )
            )
            continue
        for member in members:
            count = listed.count(member)
            if count == 0:
                findings.append(
                    Finding(
                        "codec-manifest",
                        rel,
                        0,
                        f"member '{member}' of {cls} is on neither side of "
                        f"the codec manifest ({CODEC_FILE}) — declare it "
                        "serialized (and encode it, bumping "
                        "kEngineStateFormatVersion) or rebuilt, else it is "
                        "silently absent from checkpoints",
                    )
                )
            elif count > 1:
                findings.append(
                    Finding(
                        "codec-manifest",
                        CODEC_FILE,
                        0,
                        f"'{member}' of {cls} appears {count} times across "
                        "the manifest lists — it must be on exactly one side",
                    )
                )
        declared = set(members) | base_members
        for name in listed:
            if name not in declared:
                findings.append(
                    Finding(
                        "codec-manifest",
                        CODEC_FILE,
                        0,
                        f"manifest lists '{name}' for {cls} but no such "
                        f"member exists in {rel} — remove the stale entry",
                    )
                )
    return findings


# --------------------------------------------------------------------------

ALL_RULES = [
    ("engine-counters-merge", check_engine_counters),
    ("metric-names-readme", check_metric_names),
    ("api-layering", check_api_layering),
    ("hot-path-alloc", check_hot_path_alloc),
    ("raw-mutex", check_raw_mutex),
    ("required-guards", check_required_guards),
    ("codec-manifest", check_codec_manifest),
]


def run_all(root):
    findings = []
    for _, rule in ALL_RULES:
        findings.extend(rule(root))
    return findings


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        default=str(Path(__file__).resolve().parent.parent),
        help="repository root (default: the checkout containing this script)",
    )
    parser.add_argument(
        "--rule",
        action="append",
        choices=[name for name, _ in ALL_RULES],
        help="run only the named rule (repeatable; default: all)",
    )
    args = parser.parse_args(argv)

    selected = [
        (name, fn)
        for name, fn in ALL_RULES
        if args.rule is None or name in args.rule
    ]
    findings = []
    for _, fn in selected:
        findings.extend(fn(args.root))
    for finding in findings:
        print(finding)
    if findings:
        print(f"cep_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print(f"cep_lint: OK ({len(selected)} rule(s), no findings)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
