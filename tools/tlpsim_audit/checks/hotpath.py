"""hotpath — no allocation inside `// tlpsim:hot` regions.

Per-cycle code is bracketed by `// tlpsim:hot` and `// tlpsim:endhot`
comments. Inside a region this checker bans constructs that touch the
allocator or are otherwise off-limits on the per-cycle path:

  * `new`, `make_unique`/`make_shared`, `std::function`, node-based
    containers (`std::deque`, `std::map`, ...) and string construction
    are errors no waiver can suppress;
  * container growth (`push_back`/`emplace_back`/`resize`/`reserve`/
    `insert`/`emplace`) is an error unless the line carries
    `// tlpsim:waive(hotpath) <reason>` asserting the container's
    capacity is reserved up front or recycled (a Ring, a pooled vector).

Unbalanced, nested and unclosed markers are errors, so a region cannot
be silently left open or never closed.

Header budget: inline code in an included header runs on the hot path
as surely as the region's own lines. A region's module must therefore
have its whole dependency closure under layering.ALLOWED inside
HOT_SAFE. The layering check fails any include outside the declared
DAG, so together the two bound every header a hot region can reach.

The dynamic counterpart is tests/test_hotpath_alloc.cpp, which counts
operator new/delete around the simulator's step loop.
"""

import re

from ..findings import Finding, Report
from .layering import ALLOWED, module_of

CHECK = "hotpath"

HOT_RE = re.compile(r"tlpsim:hot\b")
END_RE = re.compile(r"tlpsim:endhot\b")

# Modules whose inline code allocates nothing per call. Extend
# deliberately, never to silence a finding.
HOT_SAFE = {"common", "core", "cache", "mem", "prefetch", "offchip",
            "tlb", "trace"}

# (regex over code-only text, message, waivable)
BANNED = [
    (re.compile(r"\bnew\b"), "operator new in hot region", False),
    (re.compile(r"\bmake_(unique|shared)\b"),
     "heap allocation (make_unique/make_shared) in hot region", False),
    (re.compile(r"\bstd::function\b"),
     "std::function in hot region (use a direct virtual interface)", False),
    (re.compile(r"\bstd::(deque|list|map|multimap|set|multiset"
                r"|unordered_map|unordered_set|unordered_multimap"
                r"|unordered_multiset)\b"),
     "node-based container in hot region (use FlatTable/Ring/vector)",
     False),
    (re.compile(r"\bstd::string\s*\(|\bstd::to_string\b"
                r"|\bostringstream\b|\bstringstream\b"),
     "string construction in hot region", False),
    (re.compile(r"\.(push_back|emplace_back|resize|reserve|insert"
                r"|emplace)\s*\("),
     "container growth in hot region (waive with "
     "`// tlpsim:waive(hotpath) <reason>` once capacity is reserved or "
     "pooled)", True),
]


def _marker(regex, raw, keep):
    """@p regex matches in a comment: present in the raw line, blanked
    in the string-kept one."""
    return any(not keep[m.start():m.end()].strip()
               for m in regex.finditer(raw))


def _closure(module):
    seen, stack = {module}, [module]
    while stack:
        for dep in ALLOWED.get(stack.pop(), ()):
            if dep not in seen:
                seen.add(dep)
                stack.append(dep)
    return seen


def _budget(rel, line, report):
    module = module_of(rel)
    outside = sorted(str(m) for m in _closure(module) - HOT_SAFE)
    if outside:
        report.add(Finding(
            CHECK, rel, line,
            f"hot region in module '{module}', whose declared "
            f"dependency closure reaches {{{', '.join(outside)}}} outside "
            f"the hot-safe set {{{', '.join(sorted(HOT_SAFE))}}}",
            waivable=False))


def _scan(rel, sf, report):
    regions = 0
    open_line = 0
    for lineno, (raw, keep, code) in enumerate(
            zip(sf.lines, sf.keep_lines, sf.code_lines), start=1):
        if _marker(END_RE, raw, keep):
            if not open_line:
                report.add(Finding(
                    CHECK, rel, lineno,
                    "`tlpsim:endhot` without a matching `tlpsim:hot`",
                    waivable=False))
            open_line = 0
            continue
        if _marker(HOT_RE, raw, keep):
            if open_line:
                report.add(Finding(
                    CHECK, rel, lineno,
                    f"nested `tlpsim:hot` (previous region opened at "
                    f"line {open_line})", waivable=False))
            open_line = lineno
            regions += 1
            _budget(rel, lineno, report)
            continue
        if not open_line:
            continue
        for pattern, message, waivable in BANNED:
            if pattern.search(code):
                report.add(Finding(CHECK, rel, lineno, message,
                                   waivable=waivable))
    if open_line:
        report.add(Finding(
            CHECK, rel, open_line,
            "`tlpsim:hot` region never closed with `tlpsim:endhot`",
            waivable=False))
    return regions


def run(project, files):
    report = Report()
    regions = sum(_scan(rel, sf, report)
                  for rel, sf in sorted(files.items()))
    report.summary["hotpath"] = {"regions": regions}
    return report
